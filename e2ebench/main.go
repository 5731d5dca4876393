// Command e2ebench is the repository's end-to-end benchmark. It opens a
// store through the public facade, serves it with cameo.NewHandler on a
// loopback listener in the same process, drives one seeded workload over
// HTTP from at most two client goroutines, checks every output, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run replays every operation one layer down and reports
// per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// An untraced run sets its store up at least minSetupReps times, and goes
// on while less than setupWindow has passed since the first set-up began
// (up to maxSetupReps); setup_s is the median. Set-ups are setupGap apart,
// so each starts from an idle process as a real one does, and a cheap
// set-up is sampled across seconds of the host's varying speed rather
// than one burst of it.
const (
	minSetupReps = 3
	maxSetupReps = 200
	setupWindow  = 3 * time.Second
	setupGap     = 20 * time.Millisecond
)

// maxSeconds bounds --seconds, so a run's generated inputs stay small.
const maxSeconds = 60

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: ingest, dashboard or trickle")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "length of the measured phase")
		traced  = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		data    = flag.String("data", ".bench_build", "directory for the run's stores and span dump")
	)
	flag.Parse()
	wl, err := workloadByName(*wlName)
	if err == nil && (*seconds <= 0 || *seconds > maxSeconds) {
		err = fmt.Errorf("--seconds must be in (0, %d]", maxSeconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := runConfig{wl: wl, seed: *seed, d: time.Duration(*seconds * float64(time.Second)), root: *data}
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	wl   *workload
	seed int64
	d    time.Duration
	root string
}

// result is everything one run prints.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Reasons   []string
	Metrics   []metric
	Notes     []string // extra lines: p99 sample counts, identity lines
	Prov      provenance
}

func (r result) print(w *os.File) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	errRate := ratio(float64(r.Failed), float64(r.Attempted))
	fmt.Fprintf(w, "%-36s %14.6g %s (%d of %d failed, refused or mismatched)\n", "error_rate", errRate, "share", r.Failed, r.Attempted)
	for _, s := range r.Reasons {
		fmt.Fprintln(w, "failure:", s)
	}
	prov, _ := json.Marshal(r.Prov)
	fmt.Fprintf(w, "provenance %s\n", prov)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]map[string]any{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}

// provenance identifies the host and configuration a run measured, so
// runs from different hosts or settings are not compared silently.
type provenance struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Store        map[string]any `json:"store_options"`
	Server       string         `json:"server_options"`
	StoreBlocks  int            `json:"store_blocks"`
	CacheBlocks  int            `json:"cache_blocks"`
	OpenLoopRate float64        `json:"open_loop_samples_per_s"`
	Clients      int            `json:"max_clients"`
	InputMiB     float64        `json:"input_mib"`
	SetupReps    int            `json:"setup_reps,omitempty"`
	FromProbe    []string       `json:"metrics_from_probe"`
}

func newProvenance(cfg runConfig, e *env, traced bool, m *measures) provenance {
	o := e.opts
	codecName := "cameo"
	if o.Codec != nil {
		codecName = o.Codec.Name()
	}
	var rollups []int
	for _, r := range o.Rollups {
		rollups = append(rollups, r.Step)
	}
	cache := o.CacheBlocks
	if cache == 0 {
		cache = 128
	}
	return provenance{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.d.Seconds(), Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Store: map[string]any{
			"codec_new_blocks": codecName, "lags": o.Compression.Lags, "epsilon": o.Compression.Epsilon,
			"block_size": o.BlockSize, "shards": o.Shards, "workers": o.Workers, "cache_blocks": o.CacheBlocks,
			"readahead": o.ReadAhead, "streaming": o.Streaming, "max_append_latency": o.MaxAppendLatency.String(),
			"rollup_steps": rollups, "compact_min_fill": o.CompactMinFill,
		},
		Server:       "cameo.ServerOptions{} (all defaults)",
		StoreBlocks:  countBlocks(e.dir),
		CacheBlocks:  cache,
		OpenLoopRate: cfg.wl.rate,
		Clients:      2,
		InputMiB:     float64(e.in.bytes) / (1 << 20),
		FromProbe:    m.fromProbe,
	}
}

// countBlocks counts the block files under a store directory.
func countBlocks(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".blk") {
			n++
		}
		return nil
	})
	return n
}

// phases runs a workload's measured phase and its probes, recording the
// peak live heap during the measured phase and the store's size right
// after it, and then verifies the sampled reads.
func phases(e *env, d time.Duration, m *measures) (storeBlocks int, err error) {
	heap := startHeapSampler(e.bookkeeping)
	err = e.wl.main(e, d, m)
	m.heap = heap.finish()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", e.wl.name, err)
	}
	size, err := dirBytes(e.dir)
	if err != nil {
		return 0, err
	}
	m.bytesPerSample = ratio(float64(size), float64(e.in.totalWritten()))
	storeBlocks = countBlocks(e.dir)
	if err := e.wl.probe(e, m); err != nil {
		return 0, fmt.Errorf("%s probes: %w", e.wl.name, err)
	}
	verifyReads(e)
	return storeBlocks, nil
}

// runUntraced is the run that produces the end-to-end metrics.
func runUntraced(cfg runConfig) (result, error) {
	in := makeInputs(cfg.wl, cfg.seed, cfg.d.Seconds())
	var setups []float64
	var e *env
	for first := time.Now(); len(setups) < minSetupReps || (time.Since(first) < setupWindow && len(setups) < maxSetupReps); {
		if e != nil {
			e.close()
			time.Sleep(setupGap)
		}
		t0 := time.Now()
		next, err := openEnv(cfg.wl, cfg.seed, cfg.root, in, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		e = next
	}
	defer e.close()
	m := &measures{}
	blocks, err := phases(e, cfg.d, m)
	if err != nil {
		return result{}, err
	}
	devMax, _, _ := checkStored(e)

	res := result{Prov: newProvenance(cfg, e, false, m)}
	res.Prov.StoreBlocks = blocks
	res.Prov.SetupReps = len(setups)
	add := func(name string, v float64, unit string) {
		res.Metrics = append(res.Metrics, metric{name, v, unit})
	}
	// note prints a metric that is measured but not bounded: the write
	// median flips between scheduling regimes under ingest's saturated CPU,
	// the p99s move with the host by more than any bound allows (see
	// README.md), and maintain_ms belongs to the trickle workload.
	note := func(name string, v float64, unit, extra string) {
		res.Notes = append(res.Notes, fmt.Sprintf("%-36s %14.6g %s%s", name, v, unit, extra))
	}
	add("setup_s", median(setups), "s")
	add("ingest_samples_per_s", m.ingestPerS, "samples/s")
	for _, k := range opKinds {
		lat := e.rec.latencies(k)
		if p50 := windowedPercentile(lat, 0.5); k == kindWrite {
			note(k+"_p50_ms", p50, "ms", "")
		} else {
			add(k+"_p50_ms", p50, "ms")
		}
		p99 := percentile(lat, 0.99)
		note(k+"_p99_ms", p99.Value, "ms", fmt.Sprintf(" (n=%d, %d beyond, valid=%v)", p99.N, p99.Beyond, p99.Valid))
	}
	add("reads_per_s", m.readsPerS, "req/s")
	add("bytes_per_sample", m.bytesPerSample, "B")
	add("acf_dev_max", devMax, "1")
	add("heap_peak_mb", m.heap.Value, "MiB")
	note("maintain_ms", median(m.maintainMs), "ms", " (median Maintain pass)")
	res.Notes = append(res.Notes, fmt.Sprintf("heap_peak_mb is the p99 of %d post-GC readings, %d beyond", m.heap.N, m.heap.Beyond))
	res.Attempted, res.Failed, res.Reasons = e.rec.attempted, e.rec.failed, e.rec.reasons
	res.Correct = res.Failed == 0
	return res, nil
}
