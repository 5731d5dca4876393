package main

import (
	"math"
	"sort"
)

// pctile is one latency percentile as the benchmark reports it: the value,
// the sample count it came from, and how many samples lie beyond it. A
// high percentile is trusted only with at least minBeyond samples past it;
// with fewer, the value is still reported but flagged invalid.
type pctile struct {
	Value  float64
	N      int
	Beyond int
	Valid  bool
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to count as measured rather than a single outlier.
const minBeyond = 10

// percentile selects the p-th percentile (0 < p <= 1) of xs by nearest
// rank: the smallest sample with at least ceil(p*n) samples at or below
// it. Failed or refused requests enter xs as +Inf, so they miss every
// latency limit. xs is not modified.
func percentile(xs []float64, p float64) pctile {
	n := len(xs)
	if n == 0 {
		return pctile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	beyond := n - rank
	return pctile{Value: s[rank-1], N: n, Beyond: beyond, Valid: beyond >= minBeyond}
}

// windows is how many consecutive stretches a run's samples are split
// into for the windowed statistics.
const windows = 5

// rateWindows is how many consecutive stretches a run's read rate is
// measured over; the rate reported is their median. The stretches are
// short (about a second), because a throughput absorbs every stall the
// shared host imposes, and the host's speed swings on that time scale.
const rateWindows = 25

// windowedPercentile splits xs, in completion order, into windows
// consecutive chunks of equal count, takes the p-th percentile of each and
// returns the median of those: a burst of interference on the host moves
// one window, not the result.
func windowedPercentile(xs []float64, p float64) float64 {
	if len(xs) < windows {
		return percentile(xs, p).Value
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = percentile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], p).Value
	}
	return median(per)
}

// median is the 0.5 nearest-rank percentile of xs, or 0 when xs is empty.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// mean is the arithmetic mean of xs, or 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a mechanism that never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite replaces +Inf (a failed request) by a large finite number so the
// value can be written as JSON; a run with failures is reported incorrect
// anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}
