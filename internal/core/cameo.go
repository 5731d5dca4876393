package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/acf"
	"repro/internal/pheap"
	"repro/internal/series"
	"repro/internal/stats"
)

// Compress runs the CAMEO algorithm (paper Algorithm 1) on xs and returns
// the retained points. The first and last points are always kept.
func Compress(xs []float64, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkFinite(xs); err != nil {
		return nil, err
	}
	eng := newEngine(xs, opt)
	defer eng.close()
	eng.run(stopConditions{
		epsilon:     opt.Epsilon,
		targetRatio: opt.TargetRatio,
	})
	return eng.result(), nil
}

// stopConditions bundles the halting rules of the three problem variants.
type stopConditions struct {
	epsilon     float64 // 0 = unbounded deviation (Definition 3)
	targetRatio float64 // 0 = no ratio stop
	maxRemovals int     // 0 = unlimited
	maxUnits    int     // 0 = unlimited; work-unit budget (impact evaluations)
}

// runStop reports why run returned.
type runStop int

const (
	runDone   runStop = iota // heap exhausted: every interior point removed
	runBound                 // least-impact candidate violates epsilon (terminal)
	runRatio                 // target compression ratio reached (terminal)
	runBudget                // maxRemovals/maxUnits exhausted (resumable)
)

// evalCtx is per-goroutine scratch for impact evaluation. After warm-up a
// context is allocation-free: every buffer an evaluation needs lives here or
// in the tracker scratch.
type evalCtx struct {
	sc      *acf.Scratch
	deltas  []float64
	featBuf []float64
	pacf    []float64 // Durbin-Levinson scratch (StatPACF only)
	phiPrev []float64
	phiCur  []float64

	evals    int // impact evaluations run on this context
	memoHits int // of which served from the delta-sum memo
}

// parTask assigns one chunk of the shared point list to eval worker w.
type parTask struct{ w, lo, hi int }

// engine holds the mutable state of one CAMEO run. It is resumable: run may
// be called repeatedly with progressively looser stop conditions, which the
// coarse-grained parallelization exploits (paper §4.4). It is also
// reusable: reset re-arms every buffer for a new input without reallocating
// (Compressor pools engines across blocks). close releases the eval
// workers; an engine must not be used after close.
type engine struct {
	opt  Options
	n    int
	cur  []float64 // current reconstruction values
	orig []float64 // original values (alive points always equal orig)

	left, right []int32 // alive-neighbour pointers (paper §4.3)
	removed     []bool

	tracker acf.Tracker
	base    []float64 // base feature vector S(X)
	heap    *pheap.Heap

	// direct holds the aggregates of a dense DirectTracker, whose
	// interior evaluations split into a memoizable delta stage and an
	// evaluation stage; nil otherwise (the memo is then off).
	direct *acf.Aggregates
	memo   deltaMemo

	// Lag-subset projection (Options.LagSubset, §5.5). For StatACF the
	// tracker itself is compact (it maintains only the selected lags) and
	// subPos maps each user-ordered subset entry to its tracker position;
	// for StatPACF the tracker is dense but truncated at the largest
	// selected lag (the recursion is prefix-structured).
	sub    []int
	subPos []int

	// Tracker shape derived from opt by resetPre, consumed by buildTracker
	// (and by StreamEngine, which substitutes an incrementally built
	// tracker when the shape allows it).
	trackLags   int   // dense tracker depth
	compactLags []int // non-nil: compact StatACF subset tracker

	// fastMAE marks the default configuration (ACF statistic, no subset,
	// MAE measure): the acf kernel then accumulates the deviation against
	// base while evaluating, and impact reads it via Scratch.DevSum instead
	// of running feature projection + Measure.Eval passes.
	fastMAE bool

	ctxs []*evalCtx // ctxs[0] is the main goroutine's

	// Persistent eval workers (Threads >= 2): goroutines started once per
	// engine that evaluate chunks of parPoints into parKeys, replacing a
	// per-reHeap goroutine fan-out.
	parTasks  chan parTask
	parWG     sync.WaitGroup
	parPoints []int32
	parKeys   []float64

	acfBuf []float64 // base-ACF buffer (reset only)
	keys   []float64 // heap keys, indexed by point id
	points []int32   // interior point list for the initial heap build
	neigh  []int32   // reHeap neighbour buffer
	reKeys []float64 // reHeap key buffer (parallel path)

	dev        float64 // deviation of the committed state
	removedCnt int
	iterations int
	hops       int
}

// newEngine initializes state and builds the impact heap (paper Alg. 2).
// Options must be validated and xs finite (the exported callers check).
func newEngine(xs []float64, opt Options) *engine {
	e := &engine{}
	e.reset(xs, opt)
	return e
}

// reset (re)initializes the engine for a new input series, reusing every
// internal buffer whose capacity suffices. opt must stay structurally
// identical across resets of one engine (same Lags/Statistic/LagSubset/
// AggWindow/Threads), which Compressor guarantees by construction.
//
// It is split into four stages so StreamEngine can spread the set-up cost
// across point arrivals: resetPre -> installTracker -> initImpacts ->
// armHeap. Composing them here keeps the batch path bit-identical to the
// streaming one (same operations in the same order).
func (e *engine) reset(xs []float64, opt Options) {
	e.resetPre(xs, opt)
	e.installTracker(e.buildTracker(e.orig))
	e.initImpacts(0, len(e.points))
	e.armHeap()
}

// resetPre performs the tracker-independent part of reset: copies the
// input, re-arms pointer/flag buffers, derives the tracker shape
// (trackLags/compactLags) and builds the interior point list. O(n).
func (e *engine) resetPre(xs []float64, opt Options) {
	n := len(xs)
	e.opt = opt
	e.n = n
	e.cur = append(e.cur[:0], xs...)
	e.orig = append(e.orig[:0], xs...)
	e.left = grow(e.left, n)
	e.right = grow(e.right, n)
	e.removed = grow(e.removed, n)
	e.keys = grow(e.keys, n)
	e.dev, e.removedCnt, e.iterations = 0, 0, 0
	e.hops = opt.BlockHops
	if e.hops == 0 {
		e.hops = defaultBlockHops(n)
	}

	e.trackLags = opt.Lags
	e.compactLags = nil
	e.sub, e.subPos = nil, nil
	if len(opt.LagSubset) > 0 {
		e.sub = opt.LagSubset
		if opt.Statistic == StatACF {
			e.compactLags = uniqueSortedLags(opt.LagSubset)
			e.subPos = subsetPositions(opt.LagSubset, e.compactLags)
		} else {
			// PACF truncates at the largest selected lag (§5.5): the
			// Durbin-Levinson recursion only ever reads the ACF prefix.
			e.trackLags = maxLag(opt.LagSubset)
		}
	}

	for i := 0; i < n; i++ {
		e.left[i] = int32(i - 1)
		e.right[i] = int32(i + 1)
		e.removed[i] = false
	}

	// Interior point list for the initial heap build; first and last
	// points never enter the heap (their impact is infinite). points[i] =
	// i+1, so the positional key slice keys[1:n-1] doubles as the
	// by-point-id layout the heap indexes into.
	if cap(e.points) < n {
		e.points = make([]int32, 0, n)
	}
	e.points = e.points[:0]
	for i := 1; i < n-1; i++ {
		e.points = append(e.points, int32(i))
	}
	if n > 0 {
		e.keys[0] = 0
		e.keys[n-1] = 0
	}
}

// buildTracker constructs the ACF tracker for the shape resetPre derived.
// O(n*L) (or O(n log n) on FFT-worthy shapes).
func (e *engine) buildTracker(xs []float64) acf.Tracker {
	switch {
	case e.opt.AggWindow >= 2 && e.compactLags != nil:
		return acf.NewWindowTrackerLags(xs, e.opt.AggWindow, e.opt.AggFunc, e.compactLags)
	case e.opt.AggWindow >= 2:
		return acf.NewWindowTracker(xs, e.opt.AggWindow, e.opt.AggFunc, e.trackLags)
	case e.compactLags != nil:
		return acf.NewDirectTrackerLags(xs, e.compactLags)
	default:
		return acf.NewDirectTracker(xs, e.trackLags)
	}
}

// installTracker adopts tr as the engine's tracker and derives everything
// downstream of it: eval contexts (created once per engine), the base
// feature vector, and the fastMAE kernel mode.
func (e *engine) installTracker(tr acf.Tracker) {
	e.tracker = tr

	if e.ctxs == nil {
		threads := e.opt.Threads
		if threads < 1 {
			threads = 1
		}
		e.ctxs = make([]*evalCtx, threads)
		for i := range e.ctxs {
			e.ctxs[i] = e.newEvalCtx()
		}
		if threads > 1 {
			e.startWorkers()
		}
	}

	e.direct = nil
	if d, ok := tr.(*acf.DirectTracker); ok && e.compactLags == nil {
		e.memo.arm(d.Lags(), len(e.ctxs) > 1)
		if e.memo.on() {
			e.direct = d.Aggregates()
		}
	}

	e.acfBuf = grow(e.acfBuf, e.tracker.Lags())
	e.tracker.ACFInto(e.acfBuf)
	e.base = append(e.base[:0], e.feature(e.acfBuf, e.ctxs[0])...)
	e.fastMAE = e.opt.Statistic == StatACF && len(e.opt.LagSubset) == 0 && e.opt.Measure == stats.MeasureMAE
	if e.fastMAE {
		for _, ctx := range e.ctxs {
			ctx.sc.SetBase(e.base)
		}
	}
}

// initImpacts computes the Alg. 2 initial impacts for the interior points
// in positions [lo, hi) of the point list, in parallel chunks when
// Threads > 1. Callable in slices: impacts of distinct points are
// independent, so chunked calls produce the same keys as one full call.
func (e *engine) initImpacts(lo, hi int) {
	if hi > lo {
		e.impactInto(e.points[lo:hi], e.keys[1+lo:1+hi])
	}
}

// armHeap heapifies the computed initial impacts.
func (e *engine) armHeap() {
	if e.heap == nil {
		e.heap = pheap.New(e.n, e.points, e.keys[:e.n])
	} else {
		e.heap.Reset(e.n, e.points, e.keys[:e.n])
	}
}

// newEvalCtx allocates one evaluation context sized for the engine's
// tracker and feature shape.
func (e *engine) newEvalCtx() *evalCtx {
	p := e.tracker.Lags()
	ctx := &evalCtx{sc: e.tracker.NewScratch()}
	featLen := p
	if e.sub != nil {
		featLen = len(e.sub)
	}
	ctx.featBuf = make([]float64, featLen)
	if e.opt.Statistic == StatPACF {
		ctx.pacf = make([]float64, p)
		ctx.phiPrev = make([]float64, p+1)
		ctx.phiCur = make([]float64, p+1)
	}
	return ctx
}

// close stops the persistent eval workers. The engine must not be used
// afterwards. Safe to call more than once.
func (e *engine) close() {
	if e.parTasks != nil {
		close(e.parTasks)
		e.parTasks = nil
	}
}

// feature maps a tracker ACF vector (position order) to the preserved
// statistic's feature vector, using only ctx-owned buffers. For PACF the
// Durbin-Levinson recursion is applied (O(L^2), paper §5.5); a LagSubset
// projects onto the selected lags in their user-given order.
func (e *engine) feature(acfVec []float64, ctx *evalCtx) []float64 {
	if e.opt.Statistic == StatPACF {
		src := acf.PACFFromACFInto(acfVec, ctx.pacf, ctx.phiPrev, ctx.phiCur)
		if e.sub == nil {
			return src
		}
		buf := ctx.featBuf[:len(e.sub)]
		for i, l := range e.sub {
			buf[i] = src[l-1]
		}
		return buf
	}
	if e.sub == nil {
		return acfVec
	}
	buf := ctx.featBuf[:len(e.sub)]
	for i, p := range e.subPos {
		buf[i] = acfVec[p]
	}
	return buf
}

// maxLag returns the largest lag in a subset.
func maxLag(sub []int) int {
	m := 0
	for _, l := range sub {
		if l > m {
			m = l
		}
	}
	return m
}

// uniqueSortedLags returns the sorted, deduplicated lag subset — the
// compact tracker's position order.
func uniqueSortedLags(sub []int) []int {
	out := append([]int(nil), sub...)
	sort.Ints(out)
	w := 0
	for i, l := range out {
		if i == 0 || l != out[w-1] {
			out[w] = l
			w++
		}
	}
	return out[:w]
}

// subsetPositions maps each user-ordered subset entry to its position in
// the sorted compact layout.
func subsetPositions(sub, sorted []int) []int {
	pos := make([]int, len(sub))
	for i, l := range sub {
		pos[i] = sort.SearchInts(sorted, l)
	}
	return pos
}

// gapDeltas computes the contiguous value changes caused by removing alive
// point p: every index strictly between p's alive neighbours l and r is
// re-interpolated on the straight segment l->r (paper Fig. 4). Returns the
// start index and the deltas written into ctx.deltas.
func (e *engine) gapDeltas(p int32, ctx *evalCtx) (int, []float64) {
	l, r := e.left[p], e.right[p]
	start := int(l) + 1
	m := int(r) - start
	if cap(ctx.deltas) < m {
		ctx.deltas = make([]float64, m)
	}
	d := ctx.deltas[:m]
	y0, y1 := e.cur[l], e.cur[r]
	span := float64(r - l)
	slope := (y1 - y0) / span
	for t := 0; t < m; t++ {
		interp := y0 + slope*float64(start+t-int(l))
		d[t] = interp - e.cur[start+t]
	}
	ctx.deltas = d
	return start, d
}

// impact returns D(S(X'_p), S(X)) — the deviation from the ORIGINAL
// statistic that committing the removal of p would produce (Alg. 1 checks
// the bound against the raw ACF P_L, so impacts are absolute deviations,
// not marginal changes). Steady-state evaluations perform no heap
// allocation.
//
// A dense interior candidate goes through the delta-sum memo (see
// deltaMemo): a valid entry skips gap interpolation and the O(L*m) delta
// stage, leaving the O(L) evaluation stage against the live aggregates; a
// miss computes the sums into p's slot first. Either way the result is
// bit-identical to the tracker's Hypothetical. Candidates within L of a
// series end, and compact or windowed trackers, take Hypothetical.
func (e *engine) impact(p int32, ctx *evalCtx) float64 {
	return e.evalImpact(p, ctx, true)
}

// evalImpact is impact; useMemo false keeps the evaluation off the memo
// (a parallel batch point that does not own its slot).
func (e *engine) evalImpact(p int32, ctx *evalCtx, useMemo bool) float64 {
	ctx.evals++
	var hyp []float64
	l, r := e.left[p], e.right[p]
	if useMemo && e.direct != nil && e.direct.Interior(int(l)+1, int(r-l)-1) {
		s := p & e.memo.mask
		sums := e.memo.entry(s)
		if e.memo.tag[s] == p {
			ctx.memoHits++
		} else {
			start, d := e.gapDeltas(p, ctx)
			e.direct.DeltaSums(e.cur, start, d, sums)
			e.memo.tag[s] = p
		}
		hyp = e.direct.EvalSums(sums, ctx.sc)
	} else {
		start, d := e.gapDeltas(p, ctx)
		hyp = e.tracker.Hypothetical(e.cur, start, d, ctx.sc)
	}
	var v float64
	if e.fastMAE {
		// The kernel accumulated sum |hyp_i - base_i| while evaluating;
		// dividing by the lag count is exactly stats.MAE(hyp, base).
		v = ctx.sc.DevSum() / float64(len(e.base))
	} else {
		feat := e.feature(hyp, ctx)
		v = e.opt.Measure.Eval(feat, e.base)
	}
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// run removes points until a stop condition fires. It may be called again
// with looser conditions to resume; a runBudget return resumes exactly
// where it left off (the budgeted call performs the same operations in the
// same order as an unbudgeted one, so resumed runs are bit-identical to
// batch runs). Returns why it stopped and the number of work units spent —
// one unit per impact evaluation, the currency StreamEngine paces by.
func (e *engine) run(stop stopConditions) (runStop, int) {
	alive := e.n - e.removedCnt
	removedThisCall := 0
	units := 0
	for e.heap.Len() > 0 {
		if stop.targetRatio > 0 && float64(e.n) >= stop.targetRatio*float64(alive) {
			return runRatio, units
		}
		if stop.maxRemovals > 0 && removedThisCall >= stop.maxRemovals {
			return runBudget, units
		}
		if stop.maxUnits > 0 && units >= stop.maxUnits {
			return runBudget, units
		}
		p, key := e.heap.Pop()
		e.iterations++

		// Blocking leaves stale keys on far-away points; revalidate the
		// popped candidate so the bound check is exact. If its true impact
		// now exceeds the next candidate's key, push it back and try that
		// one instead (lazy revalidation; converges because keys become
		// exact on re-push and state does not change between pops).
		exact := e.impact(p, e.ctxs[0])
		units++
		if !e.opt.NoRevalidate && e.heap.Len() > 0 && exact > e.heap.PeekKey() && exact > key {
			e.heap.Push(p, exact)
			continue
		}
		if stop.epsilon > 0 && exact > stop.epsilon {
			// Even the least-impact candidate violates the bound: stop
			// (Alg. 1). Re-insert so a resumed run can reconsider it.
			e.heap.Push(p, exact)
			return runBound, units
		}
		e.remove(p, exact)
		units += len(e.neigh)
		alive--
		removedThisCall++
	}
	return runDone, units
}

// remove commits the removal of p: updates aggregates, reconstruction
// values, neighbour pointers, and re-heaps the blocking neighbourhood.
func (e *engine) remove(p int32, exactDev float64) {
	ctx := e.ctxs[0]
	start, d := e.gapDeltas(p, ctx)
	e.tracker.Commit(e.cur, start, d)
	for i, dv := range d {
		e.cur[start+i] += dv
	}
	l, r := e.left[p], e.right[p]
	e.right[l] = r
	e.left[r] = l
	e.removed[p] = true
	e.removedCnt++
	e.dev = exactDev
	if e.direct != nil {
		e.invalidate(l, r)
	}
	e.reHeap(p)
}

// reHeap recomputes the impact of the h alive neighbours on each side of
// the removed point (paper §4.3 blocking; §4.4 fine-grained parallelism).
// The neighbour and key buffers persist across calls, so steady-state
// re-heaping allocates nothing.
func (e *engine) reHeap(p int32) {
	l, r := e.left[p], e.right[p]
	hops := e.hops
	if hops < 0 {
		hops = e.n // unbounded: update every remaining point
	}
	neigh := e.neigh[:0]
	for i, q := 0, l; i < hops && q > 0; i++ {
		neigh = append(neigh, q)
		q = e.left[q]
	}
	for i, q := 0, r; i < hops && int(q) < e.n-1; i++ {
		neigh = append(neigh, q)
		q = e.right[q]
	}
	e.neigh = neigh
	if len(neigh) == 0 {
		return
	}
	if cap(e.reKeys) < len(neigh) {
		e.reKeys = make([]float64, len(neigh))
	}
	keys := e.reKeys[:len(neigh)]
	e.impactInto(neigh, keys)
	for i, q := range neigh {
		e.heap.Fix(q, keys[i])
	}
}

// impactInto fills keys[i] = impact(points[i]). Small batches run on the
// calling goroutine; larger ones are chunked across the persistent eval
// workers, with the caller working chunk 0 itself.
func (e *engine) impactInto(points []int32, keys []float64) {
	t := len(e.ctxs)
	if t <= 1 || len(points) < 4*t {
		ctx := e.ctxs[0]
		for i, p := range points {
			keys[i] = e.impact(p, ctx)
		}
		return
	}
	e.parPoints, e.parKeys = points, keys
	if e.direct != nil {
		e.memo.claimBatch(points)
	}
	chunk := (len(points) + t - 1) / t
	for w := 1; w < t; w++ {
		lo := w * chunk
		if lo >= len(points) {
			break
		}
		e.parWG.Add(1)
		e.parTasks <- parTask{w: w, lo: lo, hi: min(lo+chunk, len(points))}
	}
	ctx := e.ctxs[0]
	for i := 0; i < min(chunk, len(points)); i++ {
		keys[i] = e.evalImpact(points[i], ctx, e.direct == nil || e.memo.owns(points, i))
	}
	e.parWG.Wait()
}

// startWorkers launches the persistent eval workers (one per extra
// context). They live until close.
func (e *engine) startWorkers() {
	e.parTasks = make(chan parTask)
	for w := 1; w < len(e.ctxs); w++ {
		go e.evalWorker()
	}
}

func (e *engine) evalWorker() {
	for t := range e.parTasks {
		points, keys := e.parPoints, e.parKeys
		ctx := e.ctxs[t.w]
		for i := t.lo; i < t.hi; i++ {
			keys[i] = e.evalImpact(points[i], ctx, e.direct == nil || e.memo.owns(points, i))
		}
		e.parWG.Done()
	}
}

// result snapshots the retained points.
func (e *engine) result() *Result {
	pts := make([]series.Point, 0, e.n-e.removedCnt)
	for i := 0; i < e.n; i++ {
		if !e.removed[i] {
			pts = append(pts, series.Point{Index: i, Value: e.orig[i]})
		}
	}
	ir := &series.Irregular{N: e.n, Points: pts}
	return &Result{
		Compressed: ir,
		Deviation:  e.dev,
		Removed:    e.removedCnt,
		Iterations: e.iterations,
	}
}

// InitialImpacts returns the Alg. 2 initial ACF-impact of every point
// (endpoints +Inf), used by the Figure 3 skew study.
func InitialImpacts(xs []float64, opt Options) ([]float64, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	eng := newEngine(xs, opt)
	defer eng.close()
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	out[0] = math.Inf(1)
	out[len(xs)-1] = math.Inf(1)
	for i := 1; i < len(xs)-1; i++ {
		out[i] = eng.heap.Key(int32(i))
	}
	return out, nil
}

// grow returns s resized to length n, reallocating only when the capacity
// is insufficient. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
