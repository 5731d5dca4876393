package tsdb

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/series"
)

// AggFunc identifies a window aggregation function for QueryAgg (the same
// enum the CAMEO on-aggregates mode uses: mean, sum, max, min).
type AggFunc = series.AggFunc

// cursorSeg is one snapshotted block overlapping a query range: durable
// (meta only), still compressing (pending non-nil), or already resolved
// to its dense reconstruction (dense non-nil — the multi-series path
// settles pending blocks up front on the caller's goroutine, because a
// worker-pool job must never wait on a block whose compression may be
// queued behind it).
type cursorSeg struct {
	meta    blockMeta
	pending *pendingBlock
	dense   []float64 // full reconstruction covering [start, start+n), when pre-resolved
}

// rangeSnapshot is the point-in-time view of a series that a Cursor (or
// QueryAgg) resolves lazily: the overlapping durable and pending blocks,
// merged in start order, plus a copy of the overlapping tail samples.
// Taking it holds the shard read lock only long enough to slice the
// already-sorted durable index (binary search for the first overlap),
// gather the few pending blocks, and copy the tail overlap — and the tail
// is not touched at all when the range ends before it.
type rangeSnapshot struct {
	name      string
	sh        *shard
	from, to  int // clamped to [0, total]
	segs      []cursorSeg
	tail      []float64 // copy of the overlapping tail samples (nil if unreached)
	tailStart int       // absolute index of tail[0]

	// cold is raised when any segment of this snapshot is resolved off the
	// compressed file rather than the decoded cache — the bit that routes
	// the query's wall time into the cold or warm latency histogram.
	// Atomic because prefetch jobs resolve segments on pool workers
	// concurrently with the cursor's own goroutine.
	cold atomic.Bool
}

// snapshotRange captures the segments of [from, to) under the shard read
// lock. from/to are clamped; an unknown series or an inverted range
// errors.
func (db *DB) snapshotRange(name string, from, to int) (*rangeSnapshot, error) {
	if from > to {
		return nil, fmt.Errorf("%w: from %d > to %d", ErrInvalidRange, from, to)
	}
	sh := db.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.series[name]
	if st == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSeries, name)
	}
	if from < st.base {
		// Samples below the retention base are gone; the query starts at
		// the first retained sample.
		from = st.base
	}
	if to > st.total {
		to = st.total
	}
	if to < from {
		to = from
	}
	snap := &rangeSnapshot{name: name, sh: sh, from: from, to: to}
	if from >= to {
		return snap, nil
	}
	// The durable index is kept sorted by insertBlock, so the overlapping
	// run is a binary search plus a contiguous slice — no per-query sort.
	i := sort.Search(len(st.blocks), func(i int) bool { return st.blocks[i].start+st.blocks[i].n > from })
	for ; i < len(st.blocks) && st.blocks[i].start < to; i++ {
		snap.segs = append(snap.segs, cursorSeg{meta: st.blocks[i]})
	}
	// Pending blocks are the few cut-but-not-yet-durable ones; sort only
	// those and merge them into the durable run.
	var pend []cursorSeg
	for _, pb := range st.pending {
		if pb.start+len(pb.raw) > from && pb.start < to {
			pend = append(pend, cursorSeg{meta: blockMeta{start: pb.start, n: len(pb.raw)}, pending: pb})
		}
	}
	if len(pend) > 0 {
		slices.SortFunc(pend, func(a, b cursorSeg) int { return a.meta.start - b.meta.start })
		snap.segs = mergeSegs(snap.segs, pend)
	}
	// Copy the tail overlap only when the range actually reaches the tail.
	if tailStart := st.total - len(st.tail); to > tailStart {
		lo := max(from, tailStart)
		snap.tailStart = lo
		snap.tail = append([]float64(nil), st.tail[lo-tailStart:to-tailStart]...)
	}
	return snap, nil
}

// mergeSegs merges two start-sorted segment runs.
func mergeSegs(a, b []cursorSeg) []cursorSeg {
	out := make([]cursorSeg, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].meta.start <= b[0].meta.start {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Cursor streams the reconstruction of one query range chunk by chunk
// instead of materializing it: each Next yields the overlap with one block
// (so chunks are at most about BlockSize samples), resolved only when
// reached — cache-resident blocks are served as sub-slices without
// copying, cold blocks of a range-decoding codec decode only the
// overlapping samples into a pooled buffer, and blocks still being
// compressed are waited for per-chunk rather than up front.
//
// The returned chunk is read-only and valid only until the next Next or
// Close call (it may alias the shared decoded-block cache or the cursor's
// reused decode buffer); callers that retain samples must copy them out.
// A Cursor is not safe for concurrent use. Close releases the pooled
// buffer; Err reports the first resolution error after Next returns false.
type Cursor struct {
	db       *DB
	snap     *rangeSnapshot
	opened   time.Time // set at open; Close observes open→Close wall time
	idx      int       // next segment to resolve
	tailDone bool
	buf      []float64 // pooled scratch for cold range decodes
	err      error
	closed   bool

	// Prefetch pipeline (active when ra > 0 and the DB has a worker
	// pool): while the caller consumes chunk i, up to ra upcoming durable
	// segments resolve as pool jobs into their own pooled buffers.
	ra   int                  // readahead depth; 0 disables prefetch
	jobs map[int]*prefetchJob // outstanding jobs keyed by segment index
	held []float64            // consumed job's pooled buffer; the returned
	// chunk may alias it, so it is released only on the next Next or Close
}

// Cursor opens a streaming read over samples [from, to) of a series
// (bounds clamped like Query). The snapshot is taken immediately — the
// cursor observes the series as of this call — but block resolution is
// deferred to Next. When Options.ReadAhead is set and the DB has a worker
// pool, upcoming cold segments are prefetched on the pool while the
// caller consumes earlier chunks; the yielded stream is bit-identical to
// the prefetch-off path.
func (db *DB) Cursor(name string, from, to int) (*Cursor, error) {
	return db.cursorWithReadAhead(name, from, to, db.opt.ReadAhead)
}

// cursorWithReadAhead opens a cursor with an explicit readahead depth,
// letting tests pit prefetch-on and prefetch-off streams against each
// other on the same DB regardless of what Options.ReadAhead says.
func (db *DB) cursorWithReadAhead(name string, from, to, ra int) (*Cursor, error) {
	snap, err := db.snapshotRange(name, from, to)
	if err != nil {
		return nil, err
	}
	c := &Cursor{db: db, snap: snap, opened: time.Now()}
	if ra > 0 && db.pool != nil {
		c.ra = ra
		c.jobs = make(map[int]*prefetchJob, ra)
	}
	return c, nil
}

// Next returns the next chunk of the reconstruction, or (nil, false) when
// the range is exhausted, the cursor is closed, or an error occurred
// (check Err).
func (c *Cursor) Next() ([]float64, bool) {
	if c.closed || c.err != nil {
		return nil, false
	}
	c.releaseHeld()
	for c.idx < len(c.snap.segs) {
		i := c.idx
		s := c.snap.segs[i]
		c.idx++
		if c.ra > 0 {
			c.schedulePrefetch()
		}
		lo := max(c.snap.from, s.meta.start)
		hi := min(c.snap.to, s.meta.start+s.meta.n)
		var chunk []float64
		var err error
		if j, ok := c.jobs[i]; ok {
			delete(c.jobs, i)
			chunk, err = c.consumePrefetch(j, s, lo, hi)
		} else {
			chunk, err = c.db.segmentRange(c.snap, s, lo, hi, &c.buf)
		}
		if err != nil {
			c.err = err
			return nil, false
		}
		if len(chunk) > 0 {
			return chunk, true
		}
		c.releaseHeld()
	}
	if !c.tailDone {
		c.tailDone = true
		if len(c.snap.tail) > 0 {
			return c.snap.tail, true
		}
	}
	return nil, false
}

// Err returns the first error encountered while resolving chunks.
func (c *Cursor) Err() error { return c.err }

// Start returns the absolute index of the first sample the cursor yields
// (the requested from, clamped to the series' retained range).
func (c *Cursor) Start() int { return c.snap.from }

// Close releases the cursor's pooled buffers and cancels any outstanding
// prefetch jobs (still-queued jobs are abandoned before they allocate;
// running jobs are waited for and their buffers reclaimed), so every
// pooled buffer is returned no matter how the cursor ended — exhausted,
// errored mid-stream, or abandoned early. Close is idempotent. The cursor
// yields no further chunks; previously returned chunks must not be used
// afterwards. Close also records the open→Close wall time into the
// cold/warm query-latency histogram — the cursor is the read primitive
// every query path (Query, QueryInto, the HTTP streaming handlers,
// MultiCursor sections) drains, so observing here covers them all once.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if !c.opened.IsZero() {
		c.db.observeQuery(c.opened, c.snap.cold.Load())
	}
	c.releaseHeld()
	if c.buf != nil {
		c.db.putBlockBuf(c.buf)
		c.buf = nil
	}
	c.cancelPrefetch()
}

// segmentRange resolves samples [lo, hi) (absolute indices) of one
// snapshotted segment. A durable block that went stale between snapshot
// and read (compaction replaced or superseded its file) is retried once
// against the live index: the merged replacement reconstructs the old
// span bit-identically, so the retry serves exactly the same samples.
func (db *DB) segmentRange(snap *rangeSnapshot, s cursorSeg, lo, hi int, buf *[]float64) ([]float64, error) {
	if s.dense != nil {
		return s.dense[lo-s.meta.start : hi-s.meta.start], nil
	}
	if s.pending != nil {
		dense, err := db.pendingDense(snap, s)
		if err != nil {
			return nil, err
		}
		return dense[lo-s.meta.start : hi-s.meta.start], nil
	}
	chunk, err := db.blockRange(snap, s.meta, lo-s.meta.start, hi-s.meta.start, buf)
	if isStaleBlock(err) {
		// The usual case: the swap already published the merged meta.
		if meta, ok := db.currentBlockFor(snap.sh, snap.name, lo); ok && meta.gen != s.meta.gen && meta.start <= lo && meta.start+meta.n >= hi {
			return db.blockRange(snap, meta, lo-meta.start, hi-meta.start, buf)
		}
		// Rename-before-swap window: the file already holds the merged
		// block but the index still points at the old meta. The file is
		// self-describing and the merge starts at the old block's start,
		// so serve straight from what is on disk.
		if chunk, rerr := db.readReplacedBlock(s.meta, lo, hi); rerr == nil {
			snap.cold.Store(true)
			return chunk, nil
		}
	}
	return chunk, err
}

// readReplacedBlock reads a block file that compaction republished before
// the index swap became visible: the file at the old meta's path is a
// valid merged block starting at the same sample index, bit-identical to
// the old blocks over their span. The overlap is range-decoded fresh and
// not cached (the replacement's cache generation is unknown here; the
// next index-resolved read caches it).
func (db *DB) readReplacedBlock(old blockMeta, lo, hi int) ([]float64, error) {
	data, release, err := db.readFilePooled(old.path)
	if err != nil {
		return nil, err
	}
	defer release()
	hdr, sidecar, payload, err := codec.SplitBlock(data)
	if err != nil {
		return nil, err
	}
	if hi > old.start+hdr.N {
		return nil, fmt.Errorf("tsdb: replaced block %s covers %d samples, need %d", old.path, hdr.N, hi-old.start)
	}
	c, err := codec.ByID(hdr.CodecID)
	if err != nil {
		return nil, err
	}
	out, _, err := c.DecodeRange(payload, sidecar, hdr.N, lo-old.start, hi-old.start, nil)
	return out, err
}

// pendingDense waits for one in-flight block and returns its
// reconstruction, re-resolving against the durable index when the async
// compression failed but a concurrent Flush has since repaired it.
func (db *DB) pendingDense(snap *rangeSnapshot, s cursorSeg) ([]float64, error) {
	sh, name := snap.sh, snap.name
	if db.opt.Streaming {
		// A streaming block completes at arrival pace; a reader must not
		// wait on future appends, so finish it on this goroutine.
		sh.mu.RLock()
		st := sh.series[name]
		sh.mu.RUnlock()
		if st != nil {
			db.forceFinishStream(sh, name, st)
		}
	}
	<-s.pending.done
	if s.pending.err == nil {
		return s.pending.recon, nil
	}
	if meta, repaired := db.durableBlockAt(sh, name, s.meta.start); repaired {
		// A Flush repaired the failed block after our snapshot; the data is
		// durable, so serve it instead of the stale error.
		return db.readBlock(sh.cache, meta, &snap.cold)
	}
	return nil, fmt.Errorf("tsdb: block at %d: %w", s.meta.start, s.pending.err)
}

// replaysFromFront reports whether a cold partial read of a block must
// decode the whole block (and cache it) instead of range-decoding it: a
// bit-stream block without a checkpoint sidecar (checkpoints disabled, or
// written by an older build) cannot seek, so every partial read would
// replay it from the front. The lossy codecs are exactly the piecewise
// ones, which need no sidecar (pinned by TestSegmentCodecsAreRangeDecoders
// in internal/codec).
func replaysFromFront(c codec.Codec, sidecar []byte) bool {
	return !c.Lossy() && len(sidecar) == 0
}

// blockRange returns samples [lo, hi) (block-relative) of a durable block.
// Cache-resident blocks are served as sub-slices without copying. A cold
// block whose overlap is partial is range-decoded by one DecodeRange call
// into the caller's pooled buffer and deliberately NOT cached (a partial
// reconstruction must never stand in for the block): piecewise codecs
// evaluate only the overlapping pieces, bit-stream blocks seek to the last
// checkpoint at or below lo and replay at most CheckpointInterval extra
// samples. Full overlaps and blocks that replay from the front take the
// decode-and-cache path.
func (db *DB) blockRange(snap *rangeSnapshot, meta blockMeta, lo, hi int, buf *[]float64) ([]float64, error) {
	sh := snap.sh
	if hi-lo < meta.n {
		if dense, ok := sh.cache.get(meta.key()); ok {
			return dense[lo:hi], nil
		}
		c, err := db.codecFor(meta)
		if err != nil {
			return nil, fmt.Errorf("tsdb: block %s: %w", meta.path, err)
		}
		payload, sidecar, release, err := db.openBlockPayload(meta)
		if err != nil {
			return nil, err
		}
		defer release()
		if !replaysFromFront(c, sidecar) {
			if *buf == nil {
				*buf = db.getBlockBuf()
			}
			snap.cold.Store(true)
			start := time.Now()
			out, bits, err := c.DecodeRange(payload, sidecar, meta.n, lo, hi, (*buf)[:0])
			if err != nil {
				return nil, fmt.Errorf("tsdb: block %s: %w", meta.path, err)
			}
			db.noteCheckpointSeek(bits)
			db.observeDecode(meta.codecID, start)
			*buf = out
			db.rangeDecodes.Add(1)
			return out, nil
		}
	}
	dense, err := db.readBlock(sh.cache, meta, &snap.cold)
	if err != nil {
		return nil, err
	}
	return dense[lo:hi], nil
}

// QueryInto appends the reconstruction of samples [from, to) to dst and
// returns the extended slice, letting callers amortize the result
// allocation across queries. dst may be nil; the result is exactly what
// Query returns.
func (db *DB) QueryInto(name string, from, to int, dst []float64) ([]float64, error) {
	cur, err := db.Cursor(name, from, to)
	if err != nil {
		return nil, err
	}
	defer cur.Close() // observes the query-latency histogram
	if total := cur.snap.to - cur.snap.from; dst == nil && total > 0 {
		dst = make([]float64, 0, total)
	}
	for {
		chunk, ok := cur.Next()
		if !ok {
			break
		}
		dst = append(dst, chunk...)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryAgg answers a downsampled aggregate query: samples [from, to) are
// cut into consecutive windows of step samples (the last window may be
// partial) and f is evaluated over each, yielding one value per window —
// the shape a dashboard asks for. Cold durable blocks fold their windows
// with one Codec.DecodeWindowAggs call each, without materializing any
// samples: the segment codecs and CAMEO from their closed-form pieces,
// bit-stream blocks in one seek-assisted pass over the compressed stream.
// Other blocks — cache-resident, in-flight, or sidecar-less bit-stream —
// fall back to the cursor's chunk resolution and are folded densely.
func (db *DB) QueryAgg(name string, from, to, step int, f AggFunc) ([]float64, error) {
	if err := validateAgg(step, f); err != nil {
		return nil, err
	}
	if out, ok, err := db.rollupAgg(name, from, to, step, f); ok || err != nil {
		// The rollup path re-enters QueryAgg on the tier series, which
		// observes its own latency; don't double-count the wrapper.
		return out, err
	}
	start := time.Now()
	accs, _, cold, err := db.windowAggs(name, from, to, step)
	db.observeQuery(start, cold)
	if err != nil || accs == nil {
		return nil, err
	}
	out := make([]float64, len(accs))
	for i, a := range accs {
		out[i] = a.Eval(f)
	}
	return out, nil
}

// validateAgg checks the request-level QueryAgg parameters shared by the
// single- and multi-series forms.
func validateAgg(step int, f AggFunc) error {
	if step < 1 {
		return fmt.Errorf("tsdb: QueryAgg step must be at least 1, got %d", step)
	}
	switch f {
	case series.AggMean, series.AggSum, series.AggMax, series.AggMin:
		return nil
	default:
		return fmt.Errorf("tsdb: unsupported aggregate function %v", f)
	}
}

// windowAggs computes the per-window accumulators of QueryAgg: samples
// [from, to) cut into step-sized windows anchored at the clamped from
// (also returned). A nil accumulator slice means the clamped range was
// empty. The cold result reports whether any block was resolved off disk
// (routing the caller's latency observation). Both QueryAgg and rollup
// materialization build on it — one accumulator pass serves every
// aggregate function at once.
func (db *DB) windowAggs(name string, from, to, step int) (accs []codec.RangeAgg, clampedFrom int, cold bool, err error) {
	snap, err := db.snapshotRange(name, from, to)
	if err != nil {
		return nil, 0, false, err
	}
	from, to = snap.from, snap.to
	if from >= to {
		return nil, from, false, nil
	}
	nw := (to - from + step - 1) / step
	accs = make([]codec.RangeAgg, nw)
	for i := range accs {
		accs[i] = codec.NewRangeAgg()
	}
	var buf []float64
	defer func() {
		if buf != nil {
			db.putBlockBuf(buf)
		}
	}()
	for _, s := range snap.segs {
		lo := max(from, s.meta.start)
		hi := min(to, s.meta.start+s.meta.n)
		if s.pending == nil {
			handled, err := db.aggPushdown(snap, s.meta, from, step, lo, hi, accs)
			if err != nil {
				return nil, from, snap.cold.Load(), err
			}
			if handled {
				continue
			}
		}
		chunk, err := db.segmentRange(snap, s, lo, hi, &buf)
		if err != nil {
			return nil, from, snap.cold.Load(), err
		}
		foldWindows(accs, from, step, lo, chunk)
	}
	if len(snap.tail) > 0 {
		foldWindows(accs, from, step, snap.tailStart, snap.tail)
	}
	return accs, from, snap.cold.Load(), nil
}

// aggPushdown folds the window aggregates of one durable block's overlap
// [lo, hi) straight from the compressed payload — one DecodeWindowAggs
// call fills every touched window without materializing samples (a
// single pass over the pieces, or a checkpoint seek plus one pass over
// the bit stream). It declines (false, nil) when the block's
// reconstruction is already cached — folding the resident samples is
// cheaper than re-parsing the payload — or when the block replays from
// the front, so the dense path decodes and caches it once.
func (db *DB) aggPushdown(snap *rangeSnapshot, meta blockMeta, from, step, lo, hi int, accs []codec.RangeAgg) (bool, error) {
	if snap.sh.cache.contains(meta.key()) {
		return false, nil
	}
	c, err := db.codecFor(meta)
	if err != nil {
		return false, fmt.Errorf("tsdb: block %s: %w", meta.path, err)
	}
	payload, sidecar, release, err := db.openBlockPayload(meta)
	if err != nil {
		if isStaleBlock(err) {
			// Compaction moved the block out from under us; decline so the
			// dense fallback re-resolves against the live index.
			return false, nil
		}
		return false, err
	}
	defer release()
	if replaysFromFront(c, sidecar) {
		return false, nil
	}
	// The engine's window grid is anchored at the query's from; shift it
	// into the block's coordinate space along with the overlap bounds.
	w0 := (lo - from) / step
	wEnd := (hi - 1 - from) / step
	start := time.Now()
	bits, err := c.DecodeWindowAggs(payload, sidecar, meta.n,
		lo-meta.start, hi-meta.start, from-meta.start, step, accs[w0:wEnd+1])
	if err != nil {
		return false, fmt.Errorf("tsdb: block %s: %w", meta.path, err)
	}
	db.noteCheckpointSeek(bits)
	snap.cold.Store(true)
	db.observeDecode(meta.codecID, start)
	db.aggPushdowns.Add(1)
	return true, nil
}

// foldWindows folds a materialized chunk starting at absolute index start
// into the per-window accumulators of a QueryAgg over [from, ...).
func foldWindows(accs []codec.RangeAgg, from, step, start int, chunk []float64) {
	for off := 0; off < len(chunk); {
		w := (start + off - from) / step
		whi := min(start+len(chunk), from+(w+1)*step)
		cnt := whi - (start + off)
		accs[w].Add(chunk[off : off+cnt])
		off += cnt
	}
}
