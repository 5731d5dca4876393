package acf

import "math"

// Aggregates maintains the five basic per-lag aggregates of paper Eq. 7 over
// a fixed-length series, enabling O(P) (single point) or O(P*m) (m-point
// gap) incremental recomputation of the ACF under value updates (paper Eq. 8
// and Eq. 9) instead of O(n*L) from scratch, where P is the number of
// maintained lag positions.
//
// Two maintenance shapes exist:
//
//   - dense (lags == nil): positions 0..L-1 hold lags 1..L, the paper's
//     default;
//   - compact (lags != nil): position i holds lags[i], a sorted set of
//     selected lags (Options.LagSubset, paper §5.5). Per-update cost drops
//     from O(L*m) to O(|lags|*m).
//
// The reconstruction of a line-simplified series always keeps its original
// length n — removing a point changes interior *values* via interpolation,
// never the length — so N is fixed for the lifetime of the struct.
//
// A dense hypothetical evaluation of an interior change runs in two stages:
// DeltaSums accumulates the change's aggregate deltas in O(L*m), EvalSums
// evaluates Eq. 2 against the live aggregates in O(L). The delta sums do
// not depend on the aggregates, so a caller that knows the values around a
// change are unchanged may keep them and repeat only the second stage.
type Aggregates struct {
	N int // series length (fixed)
	L int // largest maintained lag

	lags []int32 // maintained lags, ascending; nil = dense 1..L

	sx   []float64 // sum of head x_t, t in [0, n-l)
	sxl  []float64 // sum of tail x_{t+l}, t in [0, n-l)
	sxx  []float64 // sum of x_t * x_{t+l}
	sx2  []float64 // sum of head x_t^2
	sx2l []float64 // sum of tail x_{t+l}^2
}

// Positions returns the number of maintained lag positions P (L for dense
// aggregates, the subset size for compact ones).
func (a *Aggregates) Positions() int { return len(a.sx) }

// MaintainedLags returns the maintained lags in position order: 1..L for
// dense aggregates, the selected subset for compact ones. The returned slice
// must not be modified.
func (a *Aggregates) MaintainedLags() []int32 { return a.lags }

// newAggregatesShell allocates the aggregate arrays for a lag layout.
// lags, when non-nil, must be ascending, unique, and >= 1.
func newAggregatesShell(n, L int, lags []int32) *Aggregates {
	p := L
	if lags != nil {
		p = len(lags)
		L = 0
		if p > 0 {
			L = int(lags[p-1])
		}
	}
	return &Aggregates{
		N:    n,
		L:    L,
		lags: lags,
		sx:   make([]float64, p),
		sxl:  make([]float64, p),
		sxx:  make([]float64, p),
		sx2:  make([]float64, p),
		sx2l: make([]float64, p),
	}
}

// toLags32 validates and converts a sorted lag subset.
func toLags32(lags []int) []int32 {
	out := make([]int32, len(lags))
	prev := 0
	for i, l := range lags {
		if l <= prev {
			panic("acf: lag subset must be ascending, unique, and positive")
		}
		out[i] = int32(l)
		prev = l
	}
	return out
}

// NewAggregates extracts the dense aggregates from xs for lags 1..L in
// O(n*L) (paper function ExtractAggregates).
func NewAggregates(xs []float64, L int) *Aggregates {
	return newAggregatesDirect(xs, L, nil)
}

// NewAggregatesLags extracts compact aggregates for the given lag subset
// (ascending, unique, >= 1) in O(n*|lags|).
func NewAggregatesLags(xs []float64, lags []int) *Aggregates {
	return newAggregatesDirect(xs, 0, toLags32(lags))
}

func newAggregatesDirect(xs []float64, L int, lags []int32) *Aggregates {
	n := len(xs)
	a := newAggregatesShell(n, L, lags)
	// Head/tail sums derive from total minus a suffix/prefix; the cross
	// products need the per-lag pass.
	var total, total2 float64
	for _, x := range xs {
		total += x
		total2 += x * x
	}
	var suffix, suffix2, prefix, prefix2 float64
	if lags == nil {
		for l := 1; l <= L; l++ {
			if l >= n {
				// Fewer than one pair: all aggregates stay zero.
				break
			}
			i := l - 1
			suffix += xs[n-l]
			suffix2 += xs[n-l] * xs[n-l]
			prefix += xs[l-1]
			prefix2 += xs[l-1] * xs[l-1]
			a.sx[i] = total - suffix
			a.sx2[i] = total2 - suffix2
			a.sxl[i] = total - prefix
			a.sx2l[i] = total2 - prefix2
			var sxx float64
			for t := 0; t+l < n; t++ {
				sxx += xs[t] * xs[t+l]
			}
			a.sxx[i] = sxx
		}
		return a
	}
	// Compact: the prefix/suffix accumulators still walk every lag up to the
	// largest selected one (O(L) additions, preserving the dense summation
	// order bit-for-bit), but the O(n) cross-product pass runs only for
	// selected lags.
	p := 0
	for l := 1; l <= a.L && l < n; l++ {
		suffix += xs[n-l]
		suffix2 += xs[n-l] * xs[n-l]
		prefix += xs[l-1]
		prefix2 += xs[l-1] * xs[l-1]
		if p < len(lags) && int(lags[p]) == l {
			a.sx[p] = total - suffix
			a.sx2[p] = total2 - suffix2
			a.sxl[p] = total - prefix
			a.sx2l[p] = total2 - prefix2
			var sxx float64
			for t := 0; t+l < n; t++ {
				sxx += xs[t] * xs[t+l]
			}
			a.sxx[p] = sxx
			p++
		}
	}
	return a
}

// ACF evaluates paper Eq. 2 from the current aggregates into a fresh slice
// (position order: lags 1..L for dense aggregates, the subset for compact).
func (a *Aggregates) ACF() []float64 {
	out := make([]float64, len(a.sx))
	a.ACFInto(out)
	return out
}

// ACFInto evaluates the ACF into dst, which must have length Positions().
func (a *Aggregates) ACFInto(dst []float64) {
	if a.lags == nil {
		for i := range a.sx {
			m := float64(a.N - (i + 1))
			dst[i] = corrFromAggregates(m, a.sx[i], a.sxl[i], a.sxx[i], a.sx2[i], a.sx2l[i])
		}
		return
	}
	for i, l := range a.lags {
		m := float64(a.N - int(l))
		dst[i] = corrFromAggregates(m, a.sx[i], a.sxl[i], a.sxx[i], a.sx2[i], a.sx2l[i])
	}
}

// lagDeltas computes the Eq. 8/9 aggregate deltas of a contiguous value
// change for ONE lag l, returning the five per-lag accumulators. cur holds
// the values *before* the change.
//
// The boundary conditions of Eq. 8/9 — head membership k+l < n, tail
// membership k >= l, both-ends pair j+l < m — are monotone in j, so the
// delta range splits into at most four runs with a constant condition set.
// The branchy per-point loop of the textbook form becomes a boundary
// prologue/epilogue around a branch-free interior whose accumulators stay
// in registers. For every accumulator the addend sequence (ascending j;
// within one j the cross terms in tail, head, pair order) is exactly that
// of the branchy form, so the results are bit-identical.
func lagDeltas(cur []float64, n, start int, deltas []float64, l int) (dsx, dsxl, dsxx, dsx2, dsx2l float64) {
	m := len(deltas)
	if l <= start && l <= n-start-m {
		// Interior fast path (the steady-state case: the changed block sits
		// at least a lag away from both series ends): every delta is both a
		// head and a tail member, so the only split left is the pair cut.
		p1 := max(m-l, 0)
		for j := 0; j < p1; j++ {
			d := deltas[j]
			k := start + j
			x := cur[k]
			dsq := d * (2*x + d)
			dsx += d
			dsx2 += dsq
			dsxl += d
			dsx2l += dsq
			dsxx += d * cur[k-l]
			dsxx += d * cur[k+l]
			dsxx += d * deltas[j+l]
		}
		for j := p1; j < m; j++ {
			d := deltas[j]
			k := start + j
			x := cur[k]
			dsq := d * (2*x + d)
			dsx += d
			dsx2 += dsq
			dsxl += d
			dsx2l += dsq
			dsxx += d * cur[k-l]
			dsxx += d * cur[k+l]
		}
		return
	}
	// j-range limits of the three conditions, clamped to [0, m].
	jTail0 := min(max(l-start, 0), m)   // j >= jTail0: k >= l
	jHead1 := min(max(n-l-start, 0), m) // j <  jHead1: k+l < n
	jPair1 := min(jHead1, max(m-l, 0))  // j <  jPair1: pair term too
	// Sort the three cut points (3-element sorting network); segments
	// between consecutive cuts have a constant condition set.
	c0, c1, c2 := jTail0, jPair1, jHead1
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	lo := 0
	for _, hi := range [4]int{c0, c1, c2, m} {
		if hi <= lo {
			continue
		}
		head := hi <= jHead1
		tail := lo >= jTail0
		pair := hi <= jPair1
		switch {
		case head && tail && pair:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsq := d * (2*x + d) // (x+d)^2 - x^2
				dsx += d
				dsx2 += dsq
				dsxl += d
				dsx2l += dsq
				dsxx += d * cur[k-l]
				dsxx += d * cur[k+l]
				dsxx += d * deltas[j+l]
			}
		case head && tail:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsq := d * (2*x + d)
				dsx += d
				dsx2 += dsq
				dsxl += d
				dsx2l += dsq
				dsxx += d * cur[k-l]
				dsxx += d * cur[k+l]
			}
		case head && pair:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsx += d
				dsx2 += d * (2*x + d)
				dsxx += d * cur[k+l]
				dsxx += d * deltas[j+l]
			}
		case head:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsx += d
				dsx2 += d * (2*x + d)
				dsxx += d * cur[k+l]
			}
		case tail:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsxl += d
				dsx2l += d * (2*x + d)
				dsxx += d * cur[k-l]
			}
		}
		lo = hi
	}
	return
}

// Apply commits a contiguous block of value changes: the reconstruction
// values at indices [start, start+len(deltas)) change by deltas. cur must
// hold the reconstruction values *before* the change (the update rules of
// Eq. 8/9 are expressed in terms of old values); the caller updates cur
// afterwards.
func (a *Aggregates) Apply(cur []float64, start int, deltas []float64) {
	n := a.N
	if a.lags == nil {
		for i := range a.sx {
			l := i + 1
			if l >= n {
				break
			}
			dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
			a.sx[i] += dsx
			a.sxl[i] += dsxl
			a.sxx[i] += dsxx
			a.sx2[i] += dsx2
			a.sx2l[i] += dsx2l
		}
		return
	}
	for i, l32 := range a.lags {
		l := int(l32)
		if l >= n {
			break
		}
		dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
		a.sx[i] += dsx
		a.sxl[i] += dsxl
		a.sxx[i] += dsxx
		a.sx2[i] += dsx2
		a.sx2l[i] += dsx2l
	}
}

// Scratch holds reusable buffers for hypothetical (non-mutating) ACF
// evaluation: the output ACF, the MAE base and deviation, and the delta
// sums a dense HypotheticalACF computes on the way (the layout DeltaSums
// writes). A Scratch must not be shared between goroutines; allocate one
// per worker.
type Scratch struct {
	acf     []float64
	base    []float64 // MAE reference vector (zeros unless SetBase is called)
	dev     float64   // sum |acf_i - base_i| of the last HypotheticalACF
	sums    []float64 // delta sums of the last dense evaluation
	wdeltas []float64 // window-delta buffer (WindowTracker only)
}

// NewScratch allocates scratch buffers for a tracker with p lag positions.
func NewScratch(p int) *Scratch {
	return &Scratch{acf: make([]float64, p), base: make([]float64, p), sums: make([]float64, p+2)}
}

// SetBase installs the reference vector the kernel accumulates the MAE
// deviation against: after every HypotheticalACF call, DevSum reports
// sum_i |acf_i - base_i| with the exact summation order of stats.MAE. The
// engine's impact evaluation reads it instead of re-scanning the ACF, which
// keeps the default MAE measure to a single pass. base must have length
// Positions() and is retained by reference.
func (sc *Scratch) SetBase(base []float64) { sc.base = base }

// DevSum returns sum_i |acf_i - base_i| of the last HypotheticalACF call.
func (sc *Scratch) DevSum() float64 { return sc.dev }

// Interior reports whether a change of m values at start is a dense
// interior change: the aggregates are dense and every maintained lag keeps
// the changed block at least a lag away from both series ends. Such a
// change is evaluated in two stages, DeltaSums then EvalSums, and its
// delta sums depend only on the values within L of the block, not on the
// aggregates — which is what lets a caller memoize them.
func (a *Aggregates) Interior(start, m int) bool {
	return a.lags == nil && min(start, a.N-start-m) >= len(a.sx)
}

// DeltaSums is the delta stage of a dense interior evaluation, O(P*m): it
// writes the aggregate deltas of changing cur[start:start+len(deltas)] by
// deltas into sums (length Positions()+2): sums[0] = ds, the delta of every
// head and tail sum; sums[1] = dsq2, the delta of every head and tail sum
// of squares; sums[2+i] = dsxx of lag i+1, the cross-product delta. The
// change must satisfy Interior. cur holds the values before the change.
func (a *Aggregates) DeltaSums(cur []float64, start int, deltas, sums []float64) {
	sums[0], sums[1] = gapSums(cur, start, deltas)
	crossSums(cur, start, deltas, sums[2:2+len(a.sx)])
}

// EvalSums is the evaluation stage, O(P): the ACF after adding the delta
// sums of DeltaSums to the live aggregates, with the MAE deviation against
// the scratch base (DevSum). The returned slice aliases sc's buffers.
// DeltaSums followed by EvalSums is bit-identical to HypotheticalACF.
func (a *Aggregates) EvalSums(sums []float64, sc *Scratch) []float64 {
	sc.dev = a.evalSums(sums[:2+len(a.sx)], sc)
	return sc.acf
}

// gapSums returns the interior-path head/tail deltas of a change: on that
// path every delta is both a head and a tail member, so the dsx/dsxl and
// dsx2/dsx2l accumulators receive the same addend sequence for every lag.
func gapSums(cur []float64, start int, deltas []float64) (ds, dsq2 float64) {
	for j, d := range deltas {
		x := cur[start+j]
		ds += d
		dsq2 += d * (2*x + d) // (x+d)^2 - x^2
	}
	return ds, dsq2
}

// crossSums writes the interior-path cross-product delta of lag i+1 into
// dsxx[i]: the addends of lagDeltas's interior branch in the same order, so
// the sums are bit-identical to it. Each sum is a serial float-add chain,
// so lags run pairwise through a shared j-loop — two independent chains,
// each lag's addend sequence untouched.
func crossSums(cur []float64, start int, deltas, dsxx []float64) {
	m := len(deltas)
	if m == 1 {
		// Single-point gap: the cross products collapse to two loads
		// walking outward from the changed point.
		d := deltas[0]
		for i := range dsxx {
			l := i + 1
			dsxx[i] = d*cur[start-l] + d*cur[start+l]
		}
		return
	}
	i := 0
	for ; i+1 < len(dsxx); i += 2 {
		la := i + 1
		lb := i + 2
		var dsxxA, dsxxB float64
		p1a := max(m-la, 0)
		p1b := max(m-lb, 0) // p1b <= p1a
		// Shifted views: cmX[j] = cur[start+j-lX], cpX[j] =
		// cur[start+j+lX]; in range by the interior condition.
		cmA := cur[start-la : start-la+m]
		cpA := cur[start+la : start+la+m]
		cmB := cur[start-lb : start-lb+m]
		cpB := cur[start+lb : start+lb+m]
		for j := 0; j < p1b; j++ {
			d := deltas[j]
			dsxxA += d * cmA[j]
			dsxxA += d * cpA[j]
			dsxxA += d * deltas[j+la]
			dsxxB += d * cmB[j]
			dsxxB += d * cpB[j]
			dsxxB += d * deltas[j+lb]
		}
		for j := p1b; j < p1a; j++ { // at most one iteration
			d := deltas[j]
			dsxxA += d * cmA[j]
			dsxxA += d * cpA[j]
			dsxxA += d * deltas[j+la]
			dsxxB += d * cmB[j]
			dsxxB += d * cpB[j]
		}
		for j := p1a; j < m; j++ {
			d := deltas[j]
			dsxxA += d * cmA[j]
			dsxxA += d * cpA[j]
			dsxxB += d * cmB[j]
			dsxxB += d * cpB[j]
		}
		dsxx[i], dsxx[i+1] = dsxxA, dsxxB
	}
	if i < len(dsxx) {
		l := i + 1
		var s float64
		p1 := max(m-l, 0)
		for j := 0; j < p1; j++ {
			d := deltas[j]
			k := start + j
			s += d * cur[k-l]
			s += d * cur[k+l]
			s += d * deltas[j+l]
		}
		for j := p1; j < m; j++ {
			d := deltas[j]
			k := start + j
			s += d * cur[k-l]
			s += d * cur[k+l]
		}
		dsxx[i] = s
	}
}

// evalSums evaluates the Eq. 2 correlation of dense positions
// [0, len(sums)-2) against the live aggregates plus the delta sums, into
// sc.acf, and returns sum_i |acf_i - base_i| over those positions. The body
// of corrFromAggregates is replicated because a call per lag per candidate
// would dominate; keep the arithmetic in sync with acf.go.
func (a *Aggregates) evalSums(sums []float64, sc *Scratch) float64 {
	ds, dsq2 := sums[0], sums[1]
	dsxx := sums[2:]
	k := len(dsxx)
	acfv := sc.acf[:k]
	sxv := a.sx[:k]
	sxlv := a.sxl[:k]
	sxxv := a.sxx[:k]
	sx2v := a.sx2[:k]
	sx2lv := a.sx2l[:k]
	bv := sc.base[:k]
	nf := float64(a.N)
	var dev float64
	for i, dxx := range dsxx {
		mf := nf - float64(i+1)
		sx := sxv[i] + ds
		sxl := sxlv[i] + ds
		sxx := sxxv[i] + dxx
		sx2 := sx2v[i] + dsq2
		sx2l := sx2lv[i] + dsq2
		num := mf*sxx - sx*sxl
		pa := mf * sx2
		qa := sx * sx
		va := pa - qa
		pb := mf * sx2l
		qb := sxl * sxl
		vb := pb - qb
		var r float64
		if va <= tiny+1e-10*(pa+qa) || vb <= tiny+1e-10*(pb+qb) {
			r = 0
		} else {
			r = num / math.Sqrt(va*vb)
			if r > 1 {
				r = 1
			} else if r < -1 {
				r = -1
			}
		}
		dev += math.Abs(r - bv[i])
		acfv[i] = r
	}
	return dev
}

// HypotheticalACF evaluates the ACF the series would have after applying the
// given contiguous change, without mutating the aggregates. The returned
// slice aliases sc.acf and is valid until the next call with the same sc.
// Unlike the textbook formulation, no aggregate state is copied anywhere:
// each lag's delta accumulators are evaluated directly against the live
// aggregates, which is bit-identical to copy-then-update (both reduce to
// the same single addition per aggregate).
//
// Dense lags on the interior path run the two stages of DeltaSums and
// EvalSums (over the interior lag prefix when the change sits near a series
// end); the remaining lags, and compact aggregates, fuse both stages per
// lag.
func (a *Aggregates) HypotheticalACF(cur []float64, start int, deltas []float64, sc *Scratch) []float64 {
	n := a.N
	m := len(deltas)
	// Lags up to lFast take the interior path; keep it in sync with
	// lagDeltas's interior condition (l <= start && l <= n-start-m).
	lFast := min(start, n-start-m)
	if a.lags == nil {
		nFast := min(max(lFast, 0), len(a.sx))
		var dev float64
		if nFast > 0 {
			sums := sc.sums[:2+nFast]
			sums[0], sums[1] = gapSums(cur, start, deltas)
			crossSums(cur, start, deltas, sums[2:])
			dev = a.evalSums(sums, sc)
		}
		for i := nFast; i < len(a.sx); i++ {
			l := i + 1
			var r float64
			if l >= n {
				// No pairs at this lag: the deltas cannot change it.
				mf := float64(n - l)
				r = corrFromAggregates(mf, a.sx[i], a.sxl[i], a.sxx[i], a.sx2[i], a.sx2l[i])
			} else {
				dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
				mf := float64(n - l)
				r = corrFromAggregates(mf, a.sx[i]+dsx, a.sxl[i]+dsxl, a.sxx[i]+dsxx, a.sx2[i]+dsx2, a.sx2l[i]+dsx2l)
			}
			dev += math.Abs(r - sc.base[i])
			sc.acf[i] = r
		}
		sc.dev = dev
		return sc.acf
	}
	var ds, dsq2 float64
	if lFast >= 1 {
		ds, dsq2 = gapSums(cur, start, deltas)
	}
	var dev float64
	for i, l32 := range a.lags {
		l := int(l32)
		var r float64
		switch {
		case l <= lFast:
			var dsxx float64
			p1 := max(m-l, 0)
			for j := 0; j < p1; j++ {
				d := deltas[j]
				k := start + j
				dsxx += d * cur[k-l]
				dsxx += d * cur[k+l]
				dsxx += d * deltas[j+l]
			}
			for j := p1; j < m; j++ {
				d := deltas[j]
				k := start + j
				dsxx += d * cur[k-l]
				dsxx += d * cur[k+l]
			}
			r = a.corrDelta(i, n-l, ds, dsq2, dsxx)
		case l >= n:
			r = corrFromAggregates(float64(n-l), a.sx[i], a.sxl[i], a.sxx[i], a.sx2[i], a.sx2l[i])
		default:
			dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
			r = corrFromAggregates(float64(n-l), a.sx[i]+dsx, a.sxl[i]+dsxl, a.sxx[i]+dsxx, a.sx2[i]+dsx2, a.sx2l[i]+dsx2l)
		}
		dev += math.Abs(r - sc.base[i])
		sc.acf[i] = r
	}
	sc.dev = dev
	return sc.acf
}

// corrDelta evaluates the Eq. 2 correlation for position i after adding the
// interior-path delta accumulators to the live aggregates (dsx == dsxl == ds
// and dsx2 == dsx2l == dsq2 there, since head and tail membership coincide).
// This is corrFromAggregates(float64(mi), sx+ds, sxl+ds, sxx+dsxx, sx2+dsq2,
// sx2l+dsq2) with the variance products reused by the zero-variance guard —
// keep the arithmetic in sync with acf.go.
func (a *Aggregates) corrDelta(i, mi int, ds, dsq2, dsxx float64) float64 {
	mf := float64(mi)
	sx := a.sx[i] + ds
	sxl := a.sxl[i] + ds
	sxx := a.sxx[i] + dsxx
	sx2 := a.sx2[i] + dsq2
	sx2l := a.sx2l[i] + dsq2
	num := mf*sxx - sx*sxl
	pa := mf * sx2
	qa := sx * sx
	va := pa - qa
	pb := mf * sx2l
	qb := sxl * sxl
	vb := pb - qb
	if va <= tiny+1e-10*(pa+qa) || vb <= tiny+1e-10*(pb+qb) {
		return 0
	}
	r := num / math.Sqrt(va*vb)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// Clone returns an independent deep copy of the aggregates.
func (a *Aggregates) Clone() *Aggregates {
	return &Aggregates{
		N:    a.N,
		L:    a.L,
		lags: a.lags, // immutable once built
		sx:   append([]float64(nil), a.sx...),
		sxl:  append([]float64(nil), a.sxl...),
		sxx:  append([]float64(nil), a.sxx...),
		sx2:  append([]float64(nil), a.sx2...),
		sx2l: append([]float64(nil), a.sx2l...),
	}
}
