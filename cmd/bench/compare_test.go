package main

import (
	"strings"
	"testing"
)

// TestCompareRuns pins the -compare diff semantics: only >threshold
// time/op growth on benchmarks present in both runs is flagged, sorted
// worst-first; improvements, small noise, and unmatched names stay quiet.
func TestCompareRuns(t *testing.T) {
	old := run{Label: "baseline", Results: []result{
		{Name: "a", NsPerOp: 1000},
		{Name: "b", NsPerOp: 1000},
		{Name: "c", NsPerOp: 1000},
		{Name: "retired", NsPerOp: 1000},
		{Name: "zeroed", NsPerOp: 0},
	}}
	cur := run{Label: "current", Results: []result{
		{Name: "a", NsPerOp: 1290},  // +29%: inside the 30% noise band
		{Name: "b", NsPerOp: 1400},  // +40%: flagged
		{Name: "c", NsPerOp: 2500},  // +150%: flagged, and worst — must lead
		{Name: "new", NsPerOp: 9e9}, // no baseline: skipped
		{Name: "zeroed", NsPerOp: 500},
	}}
	warnings := compareRuns(old, cur, regressionThreshold)
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings, want 2: %v", len(warnings), warnings)
	}
	if !strings.HasPrefix(warnings[0], "c:") || !strings.Contains(warnings[0], "+150%") {
		t.Fatalf("worst regression must lead, got %q", warnings[0])
	}
	if !strings.HasPrefix(warnings[1], "b:") || !strings.Contains(warnings[1], "+40%") {
		t.Fatalf("second warning = %q", warnings[1])
	}
	if !strings.Contains(warnings[0], `baseline "baseline"`) {
		t.Fatalf("warning should name the baseline label, got %q", warnings[0])
	}

	// An all-quiet comparison yields no warnings at all.
	if w := compareRuns(old, run{Results: []result{{Name: "a", NsPerOp: 900}}}, regressionThreshold); len(w) != 0 {
		t.Fatalf("improvement flagged: %v", w)
	}
}

// TestCPUMismatch pins the host note beside the -compare diff: it names
// both CPU counts when they differ and stays silent when they agree or
// the baseline has no count recorded.
func TestCPUMismatch(t *testing.T) {
	old := run{Label: "BENCH_PR10", CPUs: 1}
	note := cpuMismatch(old, run{CPUs: 2})
	if !strings.Contains(note, "1 CPUs") || !strings.Contains(note, "on 2") || !strings.Contains(note, `"BENCH_PR10"`) {
		t.Fatalf("mismatch note = %q", note)
	}
	if note := cpuMismatch(old, run{CPUs: 1}); note != "" {
		t.Fatalf("same CPU count noted: %q", note)
	}
	if note := cpuMismatch(run{}, run{CPUs: 2}); note != "" {
		t.Fatalf("baseline without a CPU count noted: %q", note)
	}
}
