package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// regressionThreshold is the relative time/op growth past which -compare
// flags a benchmark: 30%, wide enough that ordinary run-to-run noise on a
// shared runner stays quiet while a real algorithmic regression does not.
const regressionThreshold = 0.30

// loadRun parses a previously written bench artifact.
func loadRun(path string) (run, error) {
	var r run
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// cpuMismatch returns a one-line note when the baseline was recorded with
// a different CPU count than the current run (so its time/op diffs mix
// host and code), and "" when the counts agree or the baseline predates
// the cpus field.
func cpuMismatch(old, cur run) string {
	if old.CPUs == 0 || old.CPUs == cur.CPUs {
		return ""
	}
	return fmt.Sprintf("baseline %q was recorded on %d CPUs, this run on %d: time/op differences mix host and code",
		old.Label, old.CPUs, cur.CPUs)
}

// compareRuns diffs cur against a committed baseline by benchmark name
// and describes every tracked benchmark whose time/op grew by more than
// threshold (0.30 = +30%). Benchmarks present on only one side are
// skipped — a new benchmark has no baseline, and a retired one no
// current run — and the result is sorted worst-first so the biggest
// regression leads the log.
func compareRuns(old, cur run, threshold float64) []string {
	base := make(map[string]result, len(old.Results))
	for _, r := range old.Results {
		base[r.Name] = r
	}
	type reg struct {
		line  string
		delta float64
	}
	var regs []reg
	for _, r := range cur.Results {
		o, ok := base[r.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		delta := r.NsPerOp/o.NsPerOp - 1
		if delta > threshold {
			regs = append(regs, reg{
				line: fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%+.0f%% vs baseline %q)",
					r.Name, o.NsPerOp, r.NsPerOp, delta*100, old.Label),
				delta: delta,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].delta > regs[j].delta })
	lines := make([]string, len(regs))
	for i, g := range regs {
		lines[i] = g.line
	}
	return lines
}
