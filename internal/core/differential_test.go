package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/acf"
	"repro/internal/datasets"
	"repro/internal/pheap"
	"repro/internal/series"
	"repro/internal/stats"
)

// referenceCompress reimplements the pre-optimization CAMEO pipeline (PR 2
// internal/core/cameo.go): a dense full-L tracker regardless of LagSubset,
// allocating feature projection (PACFFromACF + copy), per-candidate
// hypothetical evaluation through the generic measure, and the same greedy
// loop with lazy revalidation and blocking. Together with the acf-level
// reference test (which pins the aggregate kernel itself bit-for-bit
// against the old branchy update), it proves the rebuilt engine — compact
// trackers, fused MAE path, pooled buffers, persistent workers — retains
// exactly the same points.
type refEngine struct {
	opt         Options
	n           int
	cur, orig   []float64
	left, right []int32
	removed     []bool
	tracker     acf.Tracker
	base        []float64
	heap        *pheap.Heap
	sc          *acf.Scratch
	deltas      []float64
	featBuf     []float64
	dev         float64
	removedCnt  int
	iterations  int
	hops        int
}

func refFeature(opt Options, acfVec, buf []float64) []float64 {
	sub := opt.LagSubset
	src := acfVec
	if opt.Statistic == StatPACF {
		if len(sub) > 0 {
			src = acf.PACFFromACF(acfVec[:maxLag(sub)])
		} else {
			src = acf.PACFFromACF(acfVec)
		}
	}
	if len(sub) > 0 {
		for i, l := range sub {
			buf[i] = src[l-1]
		}
		return buf[:len(sub)]
	}
	copy(buf, src)
	return buf[:len(src)]
}

func newRefEngine(xs []float64, opt Options) *refEngine {
	n := len(xs)
	e := &refEngine{
		opt:     opt,
		n:       n,
		cur:     append([]float64(nil), xs...),
		orig:    append([]float64(nil), xs...),
		left:    make([]int32, n),
		right:   make([]int32, n),
		removed: make([]bool, n),
		hops:    opt.BlockHops,
		featBuf: make([]float64, opt.Lags),
	}
	if e.hops == 0 {
		e.hops = defaultBlockHops(n)
	}
	if opt.AggWindow >= 2 {
		e.tracker = acf.NewWindowTracker(xs, opt.AggWindow, opt.AggFunc, opt.Lags)
	} else {
		e.tracker = acf.NewDirectTracker(xs, opt.Lags)
	}
	e.sc = e.tracker.NewScratch()
	for i := 0; i < n; i++ {
		e.left[i] = int32(i - 1)
		e.right[i] = int32(i + 1)
	}
	e.base = append([]float64(nil), refFeature(opt, e.tracker.ACF(), make([]float64, opt.Lags))...)
	keys := make([]float64, n)
	points := make([]int32, 0, max(0, n-2))
	for i := 1; i < n-1; i++ {
		points = append(points, int32(i))
	}
	for _, p := range points {
		keys[p] = e.impact(p)
	}
	e.heap = pheap.New(n, points, keys)
	return e
}

func (e *refEngine) gapDeltas(p int32) (int, []float64) {
	l, r := e.left[p], e.right[p]
	start := int(l) + 1
	m := int(r) - start
	if cap(e.deltas) < m {
		e.deltas = make([]float64, m)
	}
	d := e.deltas[:m]
	y0, y1 := e.cur[l], e.cur[r]
	slope := (y1 - y0) / float64(r-l)
	for t := 0; t < m; t++ {
		d[t] = y0 + slope*float64(start+t-int(l)) - e.cur[start+t]
	}
	e.deltas = d
	return start, d
}

func (e *refEngine) impact(p int32) float64 {
	start, d := e.gapDeltas(p)
	hyp := e.tracker.Hypothetical(e.cur, start, d, e.sc)
	feat := refFeature(e.opt, hyp, e.featBuf)
	v := e.opt.Measure.Eval(feat, e.base)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

func (e *refEngine) run(epsilon, targetRatio float64) {
	alive := e.n - e.removedCnt
	for e.heap.Len() > 0 {
		if targetRatio > 0 && float64(e.n) >= targetRatio*float64(alive) {
			return
		}
		p, key := e.heap.Pop()
		e.iterations++
		exact := e.impact(p)
		if !e.opt.NoRevalidate && e.heap.Len() > 0 && exact > e.heap.PeekKey() && exact > key {
			e.heap.Push(p, exact)
			continue
		}
		if epsilon > 0 && exact > epsilon {
			e.heap.Push(p, exact)
			return
		}
		start, d := e.gapDeltas(p)
		e.tracker.Commit(e.cur, start, d)
		for i, dv := range d {
			e.cur[start+i] += dv
		}
		l, r := e.left[p], e.right[p]
		e.right[l] = r
		e.left[r] = l
		e.removed[p] = true
		e.removedCnt++
		e.dev = exact
		e.reHeap(p)
		alive--
	}
}

func (e *refEngine) reHeap(p int32) {
	l, r := e.left[p], e.right[p]
	hops := e.hops
	if hops < 0 {
		hops = e.n
	}
	for i, q := 0, l; i < hops && q > 0; i++ {
		e.heap.Fix(q, e.impact(q))
		q = e.left[q]
	}
	for i, q := 0, r; i < hops && int(q) < e.n-1; i++ {
		e.heap.Fix(q, e.impact(q))
		q = e.right[q]
	}
}

func referenceCompress(xs []float64, opt Options) *Result {
	e := newRefEngine(xs, opt)
	e.run(opt.Epsilon, opt.TargetRatio)
	pts := make([]series.Point, 0, e.n-e.removedCnt)
	for i := 0; i < e.n; i++ {
		if !e.removed[i] {
			pts = append(pts, series.Point{Index: i, Value: e.orig[i]})
		}
	}
	return &Result{
		Compressed: &series.Irregular{N: e.n, Points: pts},
		Deviation:  e.dev,
		Removed:    e.removedCnt,
		Iterations: e.iterations,
	}
}

func diffSeries(kind string, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case "random":
			xs[i] = rng.NormFloat64() * 10
		case "seasonal":
			xs[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/24) + 0.5*rng.NormFloat64()
		default: // constant
			xs[i] = 7
		}
	}
	return xs
}

// TestOptimizedMatchesReference is the differential acceptance test: the
// optimized hot path must retain bit-identical points (same indices, same
// values, same deviation, same iteration count) as the pre-optimization
// pipeline across statistics, tracker shapes, and lag-subset
// configurations, on seeded random, seasonal, and constant series.
func TestOptimizedMatchesReference(t *testing.T) {
	configs := []struct {
		name string
		opt  Options
	}{
		{"acf-eps", Options{Lags: 16, Epsilon: 0.02}},
		{"acf-ratio", Options{Lags: 16, TargetRatio: 6}},
		{"acf-subset", Options{Lags: 24, Epsilon: 0.05, LagSubset: []int{1, 12, 24}}},
		{"acf-subset-unordered", Options{Lags: 24, Epsilon: 0.05, LagSubset: []int{24, 1, 12, 12}}},
		{"pacf-eps", Options{Lags: 10, Epsilon: 0.05, Statistic: StatPACF}},
		{"pacf-subset", Options{Lags: 16, Epsilon: 0.05, Statistic: StatPACF, LagSubset: []int{2, 8}}},
		{"window-mean", Options{Lags: 6, Epsilon: 0.02, AggWindow: 5, AggFunc: series.AggMean}},
		{"window-max", Options{Lags: 6, Epsilon: 0.05, AggWindow: 5, AggFunc: series.AggMax}},
		{"window-subset", Options{Lags: 6, Epsilon: 0.05, AggWindow: 5, AggFunc: series.AggMean, LagSubset: []int{2, 6}}},
		{"chebyshev", Options{Lags: 16, Epsilon: 0.05, Measure: stats.MeasureChebyshev}},
		{"no-revalidate", Options{Lags: 16, Epsilon: 0.02, NoRevalidate: true}},
		{"unblocked", Options{Lags: 12, TargetRatio: 5, BlockHops: -1}},
	}
	for _, kind := range []string{"random", "seasonal", "constant"} {
		for _, cfg := range configs {
			xs := diffSeries(kind, 700, 42)
			got, err := Compress(xs, cfg.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, cfg.name, err)
			}
			want := referenceCompress(xs, cfg.opt)
			if got.Removed != want.Removed || got.Iterations != want.Iterations {
				t.Fatalf("%s/%s: removed/iterations %d/%d, reference %d/%d",
					kind, cfg.name, got.Removed, got.Iterations, want.Removed, want.Iterations)
			}
			if math.Float64bits(got.Deviation) != math.Float64bits(want.Deviation) {
				t.Fatalf("%s/%s: deviation %x, reference %x",
					kind, cfg.name, math.Float64bits(got.Deviation), math.Float64bits(want.Deviation))
			}
			if len(got.Compressed.Points) != len(want.Compressed.Points) {
				t.Fatalf("%s/%s: %d points, reference %d",
					kind, cfg.name, len(got.Compressed.Points), len(want.Compressed.Points))
			}
			for i, p := range got.Compressed.Points {
				q := want.Compressed.Points[i]
				if p.Index != q.Index || math.Float64bits(p.Value) != math.Float64bits(q.Value) {
					t.Fatalf("%s/%s: point %d = (%d,%x), reference (%d,%x)",
						kind, cfg.name, i, p.Index, math.Float64bits(p.Value), q.Index, math.Float64bits(q.Value))
				}
			}
		}
	}

	// Delta-sum memo shapes on store-sized blocks of the group-1 replicas
	// (the reference recomputes every evaluation): the store's default
	// options, and a blocking neighbourhood narrower than the lag window,
	// so invalidation cannot lean on the re-heap set. The streaming engine
	// runs each block in single-unit Advance slices, so every slice ends
	// right after a removal's re-heap and the memo outlives the call.
	for i, xs := range storeBlocks() {
		for _, cfg := range []struct {
			name string
			opt  Options
		}{
			{"store", Options{Lags: 24, Epsilon: 0.01}},
			{"hops2", Options{Lags: 24, Epsilon: 0.01, BlockHops: 2}},
		} {
			label := fmt.Sprintf("replica%d/%s", i, cfg.name)
			want := referenceCompress(xs, cfg.opt)
			got, err := Compress(xs, cfg.opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			matchBits(t, label, got, want)
			se, err := NewStreamEngine(cfg.opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := se.Begin(xs); err != nil {
				t.Fatalf("%s: Begin: %v", label, err)
			}
			for {
				if _, done := se.Advance(1); done {
					break
				}
			}
			matchBits(t, label+"/stream-q1", se.Result(), want)
			se.Close()
		}
	}
}

// storeBlocks returns one 4096-sample block of each group-1 dataset
// replica: the store's default CAMEO block shape (n=4096, L=24).
func storeBlocks() [][]float64 {
	specs := []datasets.Spec{datasets.ElecPower(), datasets.MinTemp(), datasets.Pedestrian(), datasets.UKElecDem()}
	out := make([][]float64, len(specs))
	for i, s := range specs {
		out[i] = s.GenerateN(4096, 7919+int64(i))
	}
	return out
}

// matchBits fails unless got retains exactly want's points with the same
// counters and the same deviation, compared bit for bit.
func matchBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Removed != want.Removed || got.Iterations != want.Iterations {
		t.Fatalf("%s: removed/iterations %d/%d, want %d/%d",
			label, got.Removed, got.Iterations, want.Removed, want.Iterations)
	}
	if math.Float64bits(got.Deviation) != math.Float64bits(want.Deviation) {
		t.Fatalf("%s: deviation %x, want %x",
			label, math.Float64bits(got.Deviation), math.Float64bits(want.Deviation))
	}
	if len(got.Compressed.Points) != len(want.Compressed.Points) {
		t.Fatalf("%s: %d points, want %d", label, len(got.Compressed.Points), len(want.Compressed.Points))
	}
	for i, p := range got.Compressed.Points {
		q := want.Compressed.Points[i]
		if p.Index != q.Index || math.Float64bits(p.Value) != math.Float64bits(q.Value) {
			t.Fatalf("%s: point %d = (%d,%x), want (%d,%x)",
				label, i, p.Index, math.Float64bits(p.Value), q.Index, math.Float64bits(q.Value))
		}
	}
}

// TestCompressorMatchesCompress proves engine pooling is observation-free:
// a reused Compressor yields bit-identical results to fresh Compress calls,
// including across different block lengths.
func TestCompressorMatchesCompress(t *testing.T) {
	opt := Options{Lags: 12, Epsilon: 0.05}
	cmp, err := NewCompressor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	for i, n := range []int{300, 700, 300, 128, 700} {
		xs := diffSeries("seasonal", n, int64(i+1))
		got, err := cmp.Compress(xs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compress(xs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Removed != want.Removed || len(got.Compressed.Points) != len(want.Compressed.Points) ||
			math.Float64bits(got.Deviation) != math.Float64bits(want.Deviation) {
			t.Fatalf("block %d (n=%d): pooled result differs from fresh Compress", i, n)
		}
		for j, p := range got.Compressed.Points {
			q := want.Compressed.Points[j]
			if p.Index != q.Index || math.Float64bits(p.Value) != math.Float64bits(q.Value) {
				t.Fatalf("block %d: point %d differs", i, j)
			}
		}
	}
}

// TestThreadedMatchesSerial pins the persistent-worker path to the serial
// one: parallel impact evaluation must not change results.
func TestThreadedMatchesSerial(t *testing.T) {
	xs := diffSeries("seasonal", 900, 3)
	serial, err := Compress(xs, Options{Lags: 16, Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := Compress(xs, Options{Lags: 16, Epsilon: 0.02, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Removed != threaded.Removed || serial.Iterations != threaded.Iterations {
		t.Fatalf("threaded run diverges: removed %d/%d iterations %d/%d",
			threaded.Removed, serial.Removed, threaded.Iterations, serial.Iterations)
	}
	for i, p := range serial.Compressed.Points {
		q := threaded.Compressed.Points[i]
		if p.Index != q.Index {
			t.Fatalf("point %d differs", i)
		}
	}

	// Store-sized blocks: re-heap batches are split across workers that
	// share one delta-sum memo, and with 4096 points per block slots
	// collide within a batch (run under -race to check that no two
	// workers ever touch one entry).
	for i, xs := range storeBlocks() {
		opt := Options{Lags: 24, Epsilon: 0.01}
		want, err := Compress(xs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 4} {
			opt.Threads = threads
			got, err := Compress(xs, opt)
			if err != nil {
				t.Fatal(err)
			}
			matchBits(t, fmt.Sprintf("replica%d/threads%d", i, threads), got, want)
		}
	}
}

// TestImpactEvalZeroAllocs locks in the headline property: steady-state
// impact evaluation — gap interpolation, hypothetical ACF, feature
// projection, deviation measure — performs zero heap allocations for the
// direct tracker, and for PACF once the Durbin-Levinson scratch is warm.
func TestImpactEvalZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"acf-direct", Options{Lags: 48, Epsilon: 0.01}},
		{"acf-subset", Options{Lags: 48, Epsilon: 0.01, LagSubset: []int{1, 24, 48}}},
		{"pacf", Options{Lags: 24, Epsilon: 0.01, Statistic: StatPACF}},
		{"window", Options{Lags: 8, Epsilon: 0.01, AggWindow: 6, AggFunc: series.AggMean}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs := diffSeries("seasonal", 2000, 9)
			eng := newEngine(xs, tc.opt)
			defer eng.close()
			ctx := eng.ctxs[0]
			// Warm the window-delta buffer once (it grows on first use).
			eng.impact(1000, ctx)
			if n := testing.AllocsPerRun(100, func() {
				eng.impact(1000, ctx)
			}); n != 0 {
				t.Fatalf("impact allocates %v per run, want 0", n)
			}
		})
	}
	t.Run("acf-direct-memo-hit", func(t *testing.T) {
		xs := diffSeries("seasonal", 2000, 9)
		eng := newEngine(xs, Options{Lags: 24, Epsilon: 0.01})
		defer eng.close()
		ctx := eng.ctxs[0]
		eng.run(stopConditions{epsilon: 0.01, maxRemovals: 300})
		p := eng.right[1000] // an alive interior candidate
		eng.impact(p, ctx)
		hits := ctx.memoHits
		if n := testing.AllocsPerRun(100, func() {
			eng.impact(p, ctx)
		}); n != 0 {
			t.Fatalf("memo-hit impact allocates %v per run, want 0", n)
		}
		if got := ctx.memoHits - hits; got != 101 {
			t.Fatalf("%d of 101 repeated evaluations hit the memo", got)
		}
	})
}

// TestDeltaMemoHitShare pins the memo's effectiveness: on a store-shaped
// seasonal block, a sizable share of the evaluations after the initial
// impacts (re-heap neighbours and revalidation pops) must be served from
// the memo, so a change that silently turns it into always-miss fails
// here. The share is 0.38 at the 512-slot L=24 capacity; an unbounded
// memo would reach about 0.75, the rest being candidates whose gap or
// lag window did change.
func TestDeltaMemoHitShare(t *testing.T) {
	xs := diffSeries("seasonal", 4096, 1)
	opt := Options{Lags: 24, Epsilon: 0.01}
	eng := newEngine(xs, opt)
	defer eng.close()
	ctx := eng.ctxs[0]
	initial := ctx.evals
	eng.run(stopConditions{epsilon: opt.Epsilon})
	evals := ctx.evals - initial
	share := float64(ctx.memoHits) / float64(evals)
	t.Logf("%d of %d evaluations after the initial impacts hit the memo (%.3f)", ctx.memoHits, evals, share)
	if share < 1.0/3 {
		t.Fatalf("memo hit share %.3f, want >= 1/3", share)
	}
}

// TestDeltaMemoBudget pins the memo footprint: whatever the lag count, its
// slot arrays fit memoBudget (128 KiB), and at the store's L=24 it holds
// 512 entries. A lag count too large for even one entry turns it off.
func TestDeltaMemoBudget(t *testing.T) {
	if memoBudget > 128<<10 {
		t.Fatalf("memoBudget %d exceeds 128 KiB", memoBudget)
	}
	for _, L := range []int{1, 8, 24, 48, 200, 8000, 20000} {
		slots := memoSlots(L)
		if bytes := slots * ((L+2)*8 + 8); bytes > memoBudget {
			t.Fatalf("L=%d: %d slots take %d bytes, over the %d budget", L, slots, bytes, memoBudget)
		}
	}
	if got := memoSlots(24); got != 512 {
		t.Fatalf("memoSlots(24) = %d, want 512", got)
	}
	if got := memoSlots(20000); got != 0 {
		t.Fatalf("memoSlots(20000) = %d, want 0 (memo off)", got)
	}
	xs := diffSeries("seasonal", 300, 2)
	eng := newEngine(xs, Options{Lags: 70, Epsilon: 0.05})
	defer eng.close()
	if eng.direct == nil {
		t.Fatal("dense direct tracker without a memo")
	}
}
