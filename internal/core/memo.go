package core

// memoBudget is the byte budget of one engine's delta-sum memo: slot
// arrays included, it never exceeds 128 KiB, whatever the lag count. At the
// store's L=24 it holds 512 entries: 106 KiB, plus 2 KiB of claims when
// Threads >= 2.
const memoBudget = 128 << 10

// deltaMemo caches the delta stage of dense interior impact evaluations
// (acf.Aggregates.DeltaSums): per candidate, the head/tail sums ds and dsq2
// and the L cross-product sums dsxx. Those sums depend only on the
// candidate's gap and the reconstruction values within L of it, never on
// the live aggregates, so while neither changes a re-evaluation skips the
// O(L*m) delta stage and pays only the O(L) evaluation stage against the
// current aggregates. The reused sums are the very floats the delta stage
// would recompute, so memoized evaluations are bit-identical to fresh ones.
//
// Entries are direct-mapped by point index (slot = p & mask) and tagged
// with the point; engine.remove invalidates every candidate whose
// dependency window meets the changed indices. In a parallel batch each
// slot is owned by one point of the batch (claim), so no two eval workers
// touch the same entry.
type deltaMemo struct {
	lags  int32     // L: how far a candidate's sums reach past its gap
	width int       // floats per entry: L+2
	mask  int32     // slot count - 1 (a power of two)
	sums  []float64 // entry s at sums[s*width : (s+1)*width]
	tag   []int32   // point whose sums slot s holds; -1 = empty
	claim []int32   // batch position owning slot s (Threads >= 2 only)
}

// memoSlots returns the slot count for L lags: the largest power of two
// whose entries (L+2 sums plus a tag and a claim) fit memoBudget, or 0 when
// not even one does.
func memoSlots(L int) int {
	per := (L+2)*8 + 4 + 4
	slots := 1
	for 2*slots*per <= memoBudget {
		slots *= 2
	}
	if slots*per > memoBudget {
		return 0
	}
	return slots
}

// arm sizes the memo for L lags (reusing its arrays when the shape is
// unchanged) and empties it. threaded allocates the claim array.
func (m *deltaMemo) arm(L int, threaded bool) {
	slots := memoSlots(L)
	if m.width != L+2 || len(m.tag) != slots {
		*m = deltaMemo{
			lags:  int32(L),
			width: L + 2,
			mask:  int32(slots - 1),
			sums:  make([]float64, slots*(L+2)),
			tag:   make([]int32, slots),
		}
	}
	if threaded && m.claim == nil {
		m.claim = make([]int32, slots)
	}
	for i := range m.tag {
		m.tag[i] = -1
	}
}

// on reports whether the memo is armed.
func (m *deltaMemo) on() bool { return len(m.tag) > 0 }

// entry returns slot s's sums.
func (m *deltaMemo) entry(s int32) []float64 {
	return m.sums[int(s)*m.width : int(s+1)*m.width]
}

// drop invalidates p's entry, if the memo holds one.
func (m *deltaMemo) drop(p int32) {
	if s := p & m.mask; m.tag[s] == p {
		m.tag[s] = -1
	}
}

// claimBatch assigns every slot the batch touches to the last batch
// position mapping to it; owns then admits exactly that position.
func (m *deltaMemo) claimBatch(points []int32) {
	for i, p := range points {
		m.claim[p&m.mask] = int32(i)
	}
}

// owns reports whether batch position i owns its point's slot.
func (m *deltaMemo) owns(points []int32, i int) bool {
	return m.claim[points[i]&m.mask] == int32(i)
}

// invalidate drops the entry of every alive candidate q whose dependency
// window [left[q]+1-L, right[q]-1+L] meets [l+1, r-1], the indices whose
// values a removal between alive neighbours l and r changed (pointers
// already relinked, so right[l] == r). The walk follows the alive list
// outward from l and r and stops at the first window that falls short,
// independent of the re-heap neighbourhood (BlockHops may be narrower
// than L).
func (e *engine) invalidate(l, r int32) {
	m := &e.memo
	for q := l; q > 0 && e.right[q]-1+m.lags >= l+1; q = e.left[q] {
		m.drop(q)
	}
	for q := r; int(q) < e.n-1 && e.left[q]+1-m.lags <= r-1; q = e.right[q] {
		m.drop(q)
	}
}
