package acf

import (
	"math"
	"math/rand"
	"testing"
)

// Reference implementation of the pre-optimization hot path: hypothetical
// evaluation copies the five aggregate slices and applies the textbook
// branchy per-point update (the exact code this kernel replaced). The
// optimized path must reproduce it BIT FOR BIT — same floating-point
// operations in the same order — so compression results are unchanged.

type refAggs struct {
	n, L                    int
	lags                    []int // maintained lags (1..L when dense)
	sx, sxl, sxx, sx2, sx2l []float64
}

func refFromAggregates(a *Aggregates) *refAggs {
	r := &refAggs{
		n:    a.N,
		L:    a.L,
		sx:   append([]float64(nil), a.sx...),
		sxl:  append([]float64(nil), a.sxl...),
		sxx:  append([]float64(nil), a.sxx...),
		sx2:  append([]float64(nil), a.sx2...),
		sx2l: append([]float64(nil), a.sx2l...),
	}
	if a.lags == nil {
		for l := 1; l <= a.L; l++ {
			r.lags = append(r.lags, l)
		}
	} else {
		for _, l := range a.lags {
			r.lags = append(r.lags, int(l))
		}
	}
	return r
}

// refApplyTo is the original branchy Eq. 8/9 update loop (PR 2
// internal/acf/aggregates.go applyTo), generalized only to iterate the
// maintained lag set.
func (r *refAggs) refApplyTo(cur []float64, start int, deltas []float64, sx, sxl, sxx, sx2, sx2l []float64) {
	n := r.n
	m := len(deltas)
	for i, l := range r.lags {
		if l >= n {
			continue
		}
		var dsx, dsxl, dsxx, dsx2, dsx2l float64
		for j := 0; j < m; j++ {
			d := deltas[j]
			if d == 0 {
				continue
			}
			k := start + j
			x := cur[k]
			dsq := d * (2*x + d)
			if k <= n-1-l {
				dsx += d
				dsx2 += dsq
			}
			if k >= l {
				dsxl += d
				dsx2l += dsq
			}
			if k >= l {
				dsxx += d * cur[k-l]
			}
			if k+l < n {
				dsxx += d * cur[k+l]
				if j+l < m {
					dsxx += d * deltas[j+l]
				}
			}
		}
		sx[i] += dsx
		sxl[i] += dsxl
		sxx[i] += dsxx
		sx2[i] += dsx2
		sx2l[i] += dsx2l
	}
}

func (r *refAggs) apply(cur []float64, start int, deltas []float64) {
	r.refApplyTo(cur, start, deltas, r.sx, r.sxl, r.sxx, r.sx2, r.sx2l)
}

// hypothetical is the original copy-then-update evaluation.
func (r *refAggs) hypothetical(cur []float64, start int, deltas []float64) []float64 {
	sx := append([]float64(nil), r.sx...)
	sxl := append([]float64(nil), r.sxl...)
	sxx := append([]float64(nil), r.sxx...)
	sx2 := append([]float64(nil), r.sx2...)
	sx2l := append([]float64(nil), r.sx2l...)
	r.refApplyTo(cur, start, deltas, sx, sxl, sxx, sx2, sx2l)
	out := make([]float64, len(r.lags))
	for i, l := range r.lags {
		m := float64(r.n - l)
		out[i] = corrFromAggregates(m, sx[i], sxl[i], sxx[i], sx2[i], sx2l[i])
	}
	return out
}

func (r *refAggs) acf() []float64 {
	out := make([]float64, len(r.lags))
	for i, l := range r.lags {
		m := float64(r.n - l)
		out[i] = corrFromAggregates(m, r.sx[i], r.sxl[i], r.sxx[i], r.sx2[i], r.sx2l[i])
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHypotheticalBitIdenticalToReference fuzzes the optimized kernel
// against the reference implementation across boundary positions, gap
// widths, zero deltas, and lag-subset layouts, requiring exact bit
// equality of the hypothetical ACF and of the committed aggregates.
func TestHypotheticalBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(400)
		L := 1 + rng.Intn(64)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = rng.NormFloat64() * 10
			case 1:
				xs[i] = 5 + 3*math.Sin(2*math.Pi*float64(i)/24) + 0.3*rng.NormFloat64()
			default:
				xs[i] = 42 // constant
			}
		}
		var agg *Aggregates
		if trial%4 == 3 {
			var lags []int
			for l := 1 + rng.Intn(L); l <= L; l += 1 + rng.Intn(8) {
				lags = append(lags, l)
			}
			if len(lags) == 0 {
				lags = []int{1}
			}
			agg = NewAggregatesLags(xs, lags)
		} else {
			agg = NewAggregates(xs, L)
		}
		ref := refFromAggregates(agg)
		sc := NewScratch(agg.Positions())
		cur := append([]float64(nil), xs...)
		for step := 0; step < 8; step++ {
			start := rng.Intn(n)
			width := 1 + rng.Intn(n-start)
			if width > 30 {
				width = 30
			}
			deltas := make([]float64, width)
			for i := range deltas {
				if rng.Intn(5) == 0 {
					deltas[i] = 0 // exercise the zero-delta skip
				} else {
					deltas[i] = rng.NormFloat64() * 4
				}
			}
			got := agg.HypotheticalACF(cur, start, deltas, sc)
			want := ref.hypothetical(cur, start, deltas)
			if !bitsEqual(got, want) {
				t.Fatalf("trial %d step %d (n=%d start=%d w=%d): hypothetical diverges from reference\n got %v\nwant %v",
					trial, step, n, start, width, got, want)
			}
			// Commit every other step so later evaluations run against
			// evolved aggregate state.
			if step%2 == 0 {
				agg.Apply(cur, start, deltas)
				ref.apply(cur, start, deltas)
				for i, d := range deltas {
					cur[start+i] += d
				}
				if !bitsEqual(agg.ACF(), ref.acf()) {
					t.Fatalf("trial %d step %d: committed ACF diverges from reference", trial, step)
				}
			}
		}
	}
}

// TestHypotheticalMAEMatchesSeparatePass checks the fused deviation
// accumulator against an explicit MAE over the returned vector.
func TestHypotheticalMAEMatchesSeparatePass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Sin(float64(i)/7) + 0.2*rng.NormFloat64()
	}
	agg := NewAggregates(xs, 20)
	base := agg.ACF()
	sc := NewScratch(20)
	sc.SetBase(base)
	deltas := []float64{1.5, -0.5, 2, 0, -1}
	hyp := agg.HypotheticalACF(xs, 137, deltas, sc)
	var want float64
	for i := range hyp {
		want += math.Abs(hyp[i] - base[i])
	}
	if math.Float64bits(sc.DevSum()) != math.Float64bits(want) {
		t.Fatalf("fused MAE sum %v != separate pass %v", sc.DevSum(), want)
	}
}

// TestZeroAllocHypothetical locks in the zero-allocation property of the
// steady-state evaluation path.
func TestZeroAllocHypothetical(t *testing.T) {
	xs := seasonal(2000, 24, 0.5, 5)
	agg := NewAggregates(xs, 48)
	sc := NewScratch(48)
	deltas := []float64{1, -2, 0.5}
	if n := testing.AllocsPerRun(200, func() {
		agg.HypotheticalACF(xs, 900, deltas, sc)
	}); n != 0 {
		t.Fatalf("HypotheticalACF allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		agg.HypotheticalACF(xs, 1, deltas, sc) // boundary (segmented) path
	}); n != 0 {
		t.Fatalf("boundary HypotheticalACF allocates %v per run, want 0", n)
	}
}

// TestDeltaSumsReuseMatchesHypothetical pins the two-stage split the core
// engine memoizes: for interior changes, DeltaSums followed by EvalSums is
// bit-identical to HypotheticalACF (output and deviation), and sums kept
// from before a commit elsewhere in the series still evaluate exactly as a
// fresh HypotheticalACF against the evolved aggregates, as long as no value
// within L of the change moved. Interior rejects compact aggregates and
// changes within L of either end.
func TestDeltaSumsReuseMatchesHypothetical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, L = 600, 24
	xs := seasonal(n, 24, 0.5, 3)
	agg := NewAggregates(xs, L)
	base := agg.ACF()
	sc, sc2 := NewScratch(L), NewScratch(L)
	sc.SetBase(base)
	sc2.SetBase(base)
	cur := append([]float64(nil), xs...)
	sums := make([]float64, L+2)
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(40)
		start := L + rng.Intn(n-2*L-m+1)
		if !agg.Interior(start, m) {
			t.Fatalf("start=%d m=%d: interior change rejected", start, m)
		}
		deltas := make([]float64, m)
		for i := range deltas {
			deltas[i] = rng.NormFloat64()
		}
		agg.DeltaSums(cur, start, deltas, sums)
		// Commit a change that stays more than L away from this one, so
		// the kept sums remain valid while the aggregates move.
		far := (start + m + L + rng.Intn(n)) % n
		if far+3 > n || (far+3+L > start && far < start+m+L) {
			far = -1
		}
		if far >= 0 {
			fd := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			agg.Apply(cur, far, fd)
			for i, d := range fd {
				cur[far+i] += d
			}
		}
		got := append([]float64(nil), agg.EvalSums(sums, sc)...)
		want := agg.HypotheticalACF(cur, start, deltas, sc2)
		if !bitsEqual(got, want) || math.Float64bits(sc.DevSum()) != math.Float64bits(sc2.DevSum()) {
			t.Fatalf("trial %d (start=%d m=%d far=%d): two-stage evaluation diverges from HypotheticalACF", trial, start, m, far)
		}
	}
	if agg.Interior(L-1, 3) || agg.Interior(n-L-2, 3) {
		t.Fatal("Interior accepted a change within L of a series end")
	}
	if NewAggregatesLags(xs, []int{1, 12, 24}).Interior(300, 3) {
		t.Fatal("Interior accepted compact aggregates")
	}
}
