package tsdb

// Storage lifecycle: the background jobs that keep a long-running store
// bounded. A Maintain pass runs, in order:
//
//  1. compaction — runs of under-filled adjacent durable blocks (the
//     signature of trickle-ingest flushes) are merged into full blocks via
//     codec.MergeBlocks, so the merged reconstruction is bit-identical to
//     the per-block reconstructions and queries cannot observe the merge.
//     The publish is atomic: the merged block is atomically renamed over
//     the first source block's path, the index entries are swapped under
//     the shard lock, and only then are the remaining source files
//     deleted. A crash at any point leaves either the old run or the new
//     block (never both or neither): loadSeries discards source blocks
//     fully covered by an earlier block as superseded.
//
//  2. rollup materialization — for each configured RollupSpec, the window
//     aggregates of every raw series' newly completed windows are computed
//     through the QueryAgg machinery (Codec.DecodeWindowAggs pushdown — no
//     raw samples are materialized for cold blocks) and
//     appended to ordinary series named "<series>@<agg>:<step>". Progress
//     is tracked by the rollup series' own lengths, so materialization is
//     idempotent across crashes and restarts.
//
//  3. retention — age first (Options.Retention bounds each raw series to
//     its newest samples; RollupSpec.Retention bounds each rollup tier),
//     then the store-wide byte budget (Options.RetainBytes deletes
//     oldest-first blocks from the largest series until the store fits).
//     Every trim writes the new base to the series' trim file before
//     deleting anything, so recovery lands on exactly the pre- or
//     post-trim sample set.
//
// Raw trims never outrun rollup materialization: a raw series' horizon is
// capped at its rollups' materialized coverage, so coarse tiers never
// develop holes because their source vanished first.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/series"
)

// RollupSpec declares one downsampled tier.
type RollupSpec struct {
	// Step is the window size in samples; each rollup sample aggregates
	// Step consecutive raw samples. Must be at least 2.
	Step int
	// Aggs lists the aggregate functions materialized for this tier (one
	// rollup series per function). Empty defaults to mean, sum, min, max —
	// the full set QueryAgg can serve.
	Aggs []AggFunc
	// Retention, when positive, bounds each of this tier's rollup series
	// to its newest Retention samples (rollup samples, i.e. windows).
	// 0 keeps the tier forever.
	Retention int
}

// normalizeRollups validates and canonicalizes Options.Rollups: steps are
// unique and at least 2, empty agg lists get the default set, and specs
// are sorted by descending step so QueryAgg meets the coarsest tier first.
func (o *Options) normalizeRollups() error {
	if len(o.Rollups) == 0 {
		return nil
	}
	specs := make([]RollupSpec, len(o.Rollups))
	copy(specs, o.Rollups)
	seen := make(map[int]bool, len(specs))
	for i, sp := range specs {
		if sp.Step < 2 {
			return fmt.Errorf("tsdb: rollup step must be at least 2, got %d", sp.Step)
		}
		if seen[sp.Step] {
			return fmt.Errorf("tsdb: duplicate rollup step %d", sp.Step)
		}
		seen[sp.Step] = true
		if sp.Retention < 0 {
			return fmt.Errorf("tsdb: rollup retention must be non-negative, got %d", sp.Retention)
		}
		if len(sp.Aggs) == 0 {
			specs[i].Aggs = []AggFunc{series.AggMean, series.AggSum, series.AggMin, series.AggMax}
		} else {
			specs[i].Aggs = append([]AggFunc(nil), sp.Aggs...)
			for _, f := range sp.Aggs {
				switch f {
				case series.AggMean, series.AggSum, series.AggMax, series.AggMin:
				default:
					return fmt.Errorf("tsdb: unsupported rollup aggregate %v", f)
				}
			}
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Step > specs[j].Step })
	o.Rollups = specs
	return nil
}

// codecForSeries picks the codec for a newly written block of a series.
// Rollup series are always compressed losslessly (Gorilla): their samples
// are derived aggregates, and stacking the store's lossy codec on top of
// them would compound error and make tier-served QueryAgg answers drift
// from the materialized values. Raw series use the configured codec.
func (db *DB) codecForSeries(name string) codec.Codec {
	if len(db.opt.Rollups) > 0 {
		if _, _, _, ok := parseRollupName(name); ok {
			// Tier blocks inherit the store's checkpoint spacing so
			// tier-served aggregate reads seek like raw-series reads do.
			return codec.Gorilla{Interval: db.opt.CheckpointInterval}
		}
	}
	return db.opt.Codec
}

// rollupName derives the series name of one materialized tier, e.g.
// "cpu@mean:360" for the 360-sample mean rollup of "cpu".
func rollupName(name string, f AggFunc, step int) string {
	return fmt.Sprintf("%s@%s:%d", name, f, step)
}

// parseRollupName splits a rollup series name into its raw series, agg
// function, and step. ok is false for names that are not in the rollup
// scheme ("<series>@<agg>:<step>" with a known agg and a positive step) —
// those are ordinary raw series, '@' in the name or not.
func parseRollupName(name string) (base string, f AggFunc, step int, ok bool) {
	at := strings.LastIndexByte(name, '@')
	if at < 0 {
		return "", 0, 0, false
	}
	suffix := name[at+1:]
	colon := strings.IndexByte(suffix, ':')
	if colon < 0 {
		return "", 0, 0, false
	}
	switch suffix[:colon] {
	case "mean":
		f = series.AggMean
	case "sum":
		f = series.AggSum
	case "max":
		f = series.AggMax
	case "min":
		f = series.AggMin
	default:
		return "", 0, 0, false
	}
	step, err := strconv.Atoi(suffix[colon+1:])
	if err != nil || step < 2 {
		return "", 0, 0, false
	}
	return name[:at], f, step, true
}

// Maintain runs one synchronous lifecycle pass: compaction, rollup
// materialization, then retention. It is what the background loop calls on
// its ticker; callers without a LifecycleInterval invoke it directly (the
// facade and tests do). Passes are serialized — a pass that overlaps the
// next tick simply delays it — and lifecycle errors are returned (and
// counted) but never poison the store's append/flush error state: a failed
// merge or trim leaves the store exactly as queryable as before.
func (db *DB) Maintain() error {
	db.lifecycleMu.Lock()
	defer db.lifecycleMu.Unlock()
	start := time.Now()
	defer func() { db.lifecyclePass.ObserveDuration(time.Since(start)) }()
	var errs []error
	errs = append(errs, db.compactAll()...)
	errs = append(errs, db.materializeRollups()...)
	errs = append(errs, db.retainAge()...)
	errs = append(errs, db.retainBytes()...)
	db.lifecyclePasses.Add(1)
	err := errors.Join(errs...)
	if err != nil {
		db.lifecycleErrors.Add(1)
	}
	return err
}

// lifecycleLoop drives Maintain on a ticker until Close stops it.
func (db *DB) lifecycleLoop(interval time.Duration) {
	defer close(db.lifecycleDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-db.lifecycleStop:
			return
		case <-t.C:
			db.Maintain() // errors are counted in LifecycleErrors
		}
	}
}

// forEachSeries snapshots the series names and invokes fn outside any
// shard lock.
func (db *DB) forEachSeries(fn func(sh *shard, name string)) {
	for _, sh := range db.shards {
		sh.mu.RLock()
		names := make([]string, 0, len(sh.series))
		for name := range sh.series {
			names = append(names, name)
		}
		sh.mu.RUnlock()
		sort.Strings(names)
		for _, name := range names {
			fn(sh, name)
		}
	}
}

// runParallel executes independent lifecycle tasks on the compression
// worker pool (bounded parallelism shared with ingest) or inline when the
// store is synchronous. Tasks must not submit pool jobs themselves.
func (db *DB) runParallel(tasks []func()) {
	if db.pool == nil || len(tasks) < 2 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, t := range tasks {
		t := t
		db.pool.reserve()
		db.pool.submit(compressJob{fn: func() { defer wg.Done(); t() }})
	}
	wg.Wait()
}

// compactAll compacts every series (rollup series included — trickled
// rollup appends fragment just like raw ones), one pool task per series.
func (db *DB) compactAll() []error {
	if db.opt.CompactMinFill < 0 {
		return nil
	}
	var (
		mu    sync.Mutex
		errs  []error
		tasks []func()
	)
	db.forEachSeries(func(sh *shard, name string) {
		tasks = append(tasks, func() {
			if err := db.compactSeries(sh, name); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("compacting series %q: %w", name, err))
				mu.Unlock()
			}
		})
	})
	db.runParallel(tasks)
	return errs
}

// compactGroup is one run of adjacent under-filled blocks to merge.
type compactGroup struct {
	blocks []blockMeta
	n      int // total samples
}

// compactSeries merges runs of under-filled adjacent durable blocks of one
// series into full blocks. The caller holds lifecycleMu, which guarantees
// the durable prefix only grows at the frontier while we work — so a
// snapshot of the prefix stays valid for the verify-and-swap below.
func (db *DB) compactSeries(sh *shard, name string) error {
	sh.mu.RLock()
	st := sh.series[name]
	if st == nil {
		sh.mu.RUnlock()
		return nil
	}
	// Only the contiguous durable prefix is eligible: blocks stranded
	// beyond a repairable hole are the pending set's business.
	prefix := make([]blockMeta, 0, len(st.blocks))
	f := st.base
	for _, b := range st.blocks {
		if b.start != f {
			break
		}
		prefix = append(prefix, b)
		f += b.n
	}
	sh.mu.RUnlock()

	var errs []error
	for _, g := range planCompaction(prefix, db.opt.CompactMinFill, db.opt.BlockSize) {
		if err := db.compactGroup(sh, name, g); err != nil {
			if errors.Is(err, codec.ErrCannotMerge) {
				continue // codec cannot merge losslessly; leave the run alone
			}
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// planCompaction finds runs of adjacent under-filled same-codec blocks and
// greedily packs them into groups of up to blockSize samples. Only groups
// of at least two blocks are worth a merge.
func planCompaction(prefix []blockMeta, minFill float64, blockSize int) []compactGroup {
	under := func(b blockMeta) bool { return float64(b.n) < minFill*float64(blockSize) }
	var groups []compactGroup
	var cur compactGroup
	flush := func() {
		if len(cur.blocks) >= 2 {
			groups = append(groups, cur)
		}
		cur = compactGroup{}
	}
	for _, b := range prefix {
		if !under(b) {
			flush()
			continue
		}
		if len(cur.blocks) > 0 && (cur.blocks[0].codecID != b.codecID || cur.n+b.n > blockSize) {
			flush()
		}
		cur.blocks = append(cur.blocks, b)
		cur.n += b.n
	}
	flush()
	return groups
}

// compactGroup merges one run of blocks and atomically publishes the
// result: the merged block file is renamed over the first source block's
// path (the single atomic step — before it the old run is live, after it
// the merged block supersedes its sources on disk), the index swap happens
// under the shard lock, and the now-superseded remaining source files are
// deleted last. Queries racing the swap hold old metas; their reads detect
// the replaced or deleted file (errStaleBlock / ENOENT) and re-resolve
// against the new index, where the merged block reconstructs the same
// samples bit-for-bit.
func (db *DB) compactGroup(sh *shard, name string, g compactGroup) error {
	c, err := codec.ByID(g.blocks[0].codecID)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(g.blocks))
	ns := make([]int, len(g.blocks))
	for i, b := range g.blocks {
		data, err := os.ReadFile(b.path)
		if err != nil {
			return fmt.Errorf("reading block %s: %w", b.path, err)
		}
		payloads[i] = data[b.hdrOff:]
		ns[i] = b.n
	}
	merged, err := codec.MergeBlocks(c, payloads, ns)
	if err != nil {
		return err
	}
	hdr, hdrOff, err := codec.ParseBlockHeader(merged)
	if err != nil {
		return fmt.Errorf("merged block header: %w", err)
	}
	newPath := g.blocks[0].path
	if err := atomicWrite(newPath, merged); err != nil {
		return err
	}
	meta := blockMeta{
		start: g.blocks[0].start, n: hdr.N, path: newPath,
		bytes: int64(len(merged)), codecID: hdr.CodecID, hdrOff: hdrOff,
		gen: db.nextGen(),
	}
	sh.mu.Lock()
	st := sh.series[name]
	if st == nil {
		sh.mu.Unlock()
		return fmt.Errorf("series vanished during compaction")
	}
	i := sort.Search(len(st.blocks), func(i int) bool { return st.blocks[i].start >= meta.start })
	for j, b := range g.blocks {
		if i+j >= len(st.blocks) || st.blocks[i+j].start != b.start || st.blocks[i+j].gen != b.gen {
			// Defensive: lifecycleMu should make this unreachable, but a
			// shifted index must never be spliced blind. The merged file
			// already replaced newPath; recovery treats whichever state is
			// on disk as authoritative, so bail without touching the index.
			sh.mu.Unlock()
			return fmt.Errorf("block index changed during compaction")
		}
	}
	st.blocks[i] = meta
	st.blocks = append(st.blocks[:i+1], st.blocks[i+len(g.blocks):]...)
	sh.mu.Unlock()
	for _, b := range g.blocks[1:] {
		if err := os.Remove(b.path); err != nil {
			// The index no longer references the file; recovery will delete
			// it as superseded on the next open.
			return fmt.Errorf("removing merged source %s: %w", b.path, err)
		}
	}
	db.compactionRuns.Add(1)
	db.compactedBlocks.Add(uint64(len(g.blocks)))
	return nil
}

// seriesBounds snapshots a series' retention base and total length.
func (db *DB) seriesBounds(name string) (base, total int, ok bool) {
	sh := db.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.series[name]
	if st == nil {
		return 0, 0, false
	}
	return st.base, st.total, true
}

// materializeRollups appends newly completed windows of every raw series
// to its rollup series. Coverage is tracked by the rollup series' own
// lengths — a crash that loses unflushed rollup samples just re-derives
// them next pass — and only windows entirely below the raw durable
// frontier are materialized, so a rollup sample never aggregates samples
// that could still be lost.
func (db *DB) materializeRollups() []error {
	if len(db.opt.Rollups) == 0 {
		return nil
	}
	var errs []error
	db.forEachSeries(func(sh *shard, name string) {
		if _, _, _, isRollup := parseRollupName(name); isRollup {
			return
		}
		if err := db.materializeSeries(sh, name); err != nil {
			errs = append(errs, fmt.Errorf("rolling up series %q: %w", name, err))
		}
	})
	return errs
}

func (db *DB) materializeSeries(sh *shard, name string) error {
	sh.mu.RLock()
	st := sh.series[name]
	if st == nil {
		sh.mu.RUnlock()
		return nil
	}
	frontier := st.durableFrontier()
	base := st.base
	sh.mu.RUnlock()
	var errs []error
	for _, sp := range db.opt.Rollups {
		w1 := frontier / sp.Step // completed, durable windows
		// Resume from the least-covered agg series of this tier; the
		// per-agg appends below skip what an agg already has.
		w0 := w1
		for _, f := range sp.Aggs {
			covered := 0
			if _, total, ok := db.seriesBounds(rollupName(name, f, sp.Step)); ok {
				covered = total
			}
			if covered < w0 {
				w0 = covered
			}
		}
		if w0 >= w1 || w0*sp.Step < base {
			// Nothing new, or the raw samples for the next window were
			// already trimmed (possible only for rollups configured after
			// the fact); materialization cannot reconstruct them.
			continue
		}
		accs, from, _, err := db.windowAggs(name, w0*sp.Step, w1*sp.Step, sp.Step)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if from != w0*sp.Step || len(accs) != w1-w0 {
			errs = append(errs, fmt.Errorf("rollup window [%d,%d) clamped to %d/%d windows", w0*sp.Step, w1*sp.Step, from, len(accs)))
			continue
		}
		for _, f := range sp.Aggs {
			rname := rollupName(name, f, sp.Step)
			covered := 0
			if _, total, ok := db.seriesBounds(rname); ok {
				covered = total
			}
			if covered >= w1 {
				continue
			}
			if covered < w0 {
				covered = w0 // defensive; w0 is the min over aggs
			}
			vals := make([]float64, 0, w1-covered)
			for _, a := range accs[covered-w0:] {
				vals = append(vals, a.Eval(f))
			}
			if err := db.Append(rname, vals...); err != nil {
				errs = append(errs, err)
				continue
			}
			db.rollupSamples.Add(uint64(len(vals)))
		}
	}
	return errors.Join(errs...)
}

// rollupCoverage returns the least materialized raw-sample coverage across
// every configured rollup series of a raw series — the cap below which a
// raw trim would destroy samples no tier has absorbed yet.
func (db *DB) rollupCoverage(name string) int {
	cover := int(^uint(0) >> 1)
	for _, sp := range db.opt.Rollups {
		for _, f := range sp.Aggs {
			covered := 0
			if _, total, ok := db.seriesBounds(rollupName(name, f, sp.Step)); ok {
				covered = total
			}
			if c := covered * sp.Step; c < cover {
				cover = c
			}
		}
	}
	return cover
}

// retainAge enforces the sample-age horizons: Options.Retention for raw
// series, RollupSpec.Retention per tier.
func (db *DB) retainAge() []error {
	var errs []error
	db.forEachSeries(func(sh *shard, name string) {
		keep := db.opt.Retention
		_, _, step, isRollup := parseRollupName(name)
		if isRollup {
			keep = 0
			for _, sp := range db.opt.Rollups {
				if sp.Step == step {
					keep = sp.Retention
				}
			}
		}
		if keep <= 0 {
			return
		}
		_, total, ok := db.seriesBounds(name)
		if !ok {
			return
		}
		horizon := total - keep
		if !isRollup && len(db.opt.Rollups) > 0 {
			// Never trim raw samples no rollup tier has materialized yet.
			if c := db.rollupCoverage(name); c < horizon {
				horizon = c
			}
		}
		if horizon <= 0 {
			return
		}
		if _, err := db.trimSeries(sh, name, horizon); err != nil {
			errs = append(errs, fmt.Errorf("retention on series %q: %w", name, err))
		}
	})
	return errs
}

// retainBytes enforces the store-wide byte budget: while the durable block
// bytes exceed RetainBytes, the series holding the most block bytes loses
// its oldest block(s).
func (db *DB) retainBytes() []error {
	budget := db.opt.RetainBytes
	if budget <= 0 {
		return nil
	}
	var errs []error
	for {
		var (
			total   int64
			bigName string
			bigSh   *shard
			bigSize int64
		)
		db.forEachSeries(func(sh *shard, name string) {
			sh.mu.RLock()
			st := sh.series[name]
			var size int64
			if st != nil {
				for _, b := range st.blocks {
					size += b.bytes
				}
			}
			sh.mu.RUnlock()
			total += size
			if size > bigSize {
				bigName, bigSh, bigSize = name, sh, size
			}
		})
		if total <= budget || bigSh == nil {
			return errs
		}
		// Trim the largest series' oldest blocks until the store fits (or
		// the series runs out of whole blocks to give).
		need := total - budget
		bigSh.mu.RLock()
		st := bigSh.series[bigName]
		horizon, freed := 0, int64(0)
		if st != nil {
			f := st.base
			for _, b := range st.blocks {
				if b.start != f {
					break
				}
				f += b.n
				horizon, freed = f, freed+b.bytes
				if freed >= need {
					break
				}
			}
		}
		bigSh.mu.RUnlock()
		if horizon == 0 {
			return errs // largest series has no trimmable prefix; give up
		}
		n, err := db.trimSeries(bigSh, bigName, horizon)
		if err != nil {
			errs = append(errs, fmt.Errorf("byte retention on series %q: %w", bigName, err))
			return errs
		}
		if n == 0 {
			return errs // no progress; avoid spinning
		}
	}
}

// trimSeries deletes the whole durable blocks of one series lying entirely
// at or below horizon (sample index). The new base is written to the trim
// file before the index moves or any file dies — recovery then discards
// whatever prefix files a crash left behind as superseded — and the file
// deletes come last, after no reader can pick the blocks up from the
// index. Returns the number of blocks trimmed.
func (db *DB) trimSeries(sh *shard, name string, horizon int) (int, error) {
	sh.mu.RLock()
	st := sh.series[name]
	if st == nil {
		sh.mu.RUnlock()
		return 0, nil
	}
	newBase := st.base
	var victims []blockMeta
	f := st.base
	for _, b := range st.blocks {
		if b.start != f || b.start+b.n > horizon {
			break
		}
		f += b.n
		newBase = f
		victims = append(victims, b)
	}
	sh.mu.RUnlock()
	if len(victims) == 0 {
		return 0, nil
	}
	if err := atomicWrite(filepath.Join(db.seriesDir(name), trimFile), []byte(strconv.Itoa(newBase))); err != nil {
		return 0, err
	}
	sh.mu.Lock()
	st = sh.series[name]
	if st == nil {
		sh.mu.Unlock()
		return 0, nil
	}
	for len(victims) > 0 && (len(st.blocks) == 0 || st.blocks[0].start != victims[0].start || st.blocks[0].gen != victims[0].gen) {
		// Defensive: the block was already replaced (should not happen
		// under lifecycleMu); skip rather than delete the wrong file.
		victims = victims[1:]
	}
	st.blocks = append([]blockMeta(nil), st.blocks[len(victims):]...)
	if newBase > st.base {
		st.base = newBase
	}
	sh.mu.Unlock()
	var freed int64
	for _, b := range victims {
		if err := os.Remove(b.path); err != nil {
			return len(victims), fmt.Errorf("removing trimmed block %s: %w", b.path, err)
		}
		freed += b.bytes
	}
	db.trimmedBlocks.Add(uint64(len(victims)))
	db.trimmedBytes.Add(uint64(freed))
	return len(victims), nil
}

// DeleteSeries removes a series — and, for a raw series, every rollup
// series derived from it — from the index and from disk. The deletion is
// crash-safe: a tombstone file lands (fsynced) in the series directory
// before any content file dies, and Open finishes the removal of any
// directory still holding one. Concurrent queries over the series may
// observe ErrUnknownSeries or a read error, never partial data presented
// as complete.
func (db *DB) DeleteSeries(name string) error {
	if err := validateSeriesName(name); err != nil {
		return err
	}
	db.lifecycleMu.Lock()
	defer db.lifecycleMu.Unlock()
	targets := []string{name}
	for _, other := range db.Series() {
		if base, _, _, isRollup := parseRollupName(other); isRollup && base == name {
			targets = append(targets, other)
		}
	}
	deleted := false
	var errs []error
	for i, target := range targets {
		ok, err := db.deleteOneSeries(target)
		if err != nil {
			errs = append(errs, fmt.Errorf("deleting series %q: %w", target, err))
		}
		if ok && i == 0 {
			deleted = true
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !deleted {
		return fmt.Errorf("%w: %q", ErrUnknownSeries, name)
	}
	return nil
}

// deleteOneSeries removes a single series. It waits out in-flight block
// compressions first (with further cuts deferred, the pending set only
// shrinks), then unpublishes the series and removes its files while
// holding the shard lock, so no reader resolves the series mid-removal.
func (db *DB) deleteOneSeries(name string) (bool, error) {
	sh := db.shardFor(name)
	sh.mu.Lock()
	st := sh.series[name]
	if st == nil {
		sh.mu.Unlock()
		return false, nil
	}
	st.flushing++ // Append defers new cuts; the pending set only shrinks
	for {
		var inflight []chan struct{}
		for _, pb := range st.pending {
			if pb.err == nil {
				inflight = append(inflight, pb.done)
			}
		}
		if len(inflight) == 0 {
			break
		}
		sh.mu.Unlock()
		for _, done := range inflight {
			<-done
		}
		sh.mu.Lock()
	}
	// Blocks whose compression failed die with the series; clear their
	// failure marks so the store does not demand a repair of deleted data.
	for start, pb := range st.pending {
		delete(st.pending, start)
		if pb.raw != nil {
			db.putBlockBuf(pb.raw)
			pb.raw = nil
		}
		db.noteRepair()
	}
	delete(sh.series, name)
	sdir := db.seriesDir(name)
	if err := atomicWrite(filepath.Join(sdir, tombstoneFile), []byte("deleting")); err != nil {
		sh.mu.Unlock()
		return true, err
	}
	err := removeSeriesDir(sdir)
	sh.mu.Unlock()
	if err != nil {
		return true, err
	}
	db.seriesDeleted.Add(1)
	return true, nil
}

// rollupAgg tries to answer a QueryAgg from a materialized rollup tier.
// It applies when the query is tier-aligned — from and the (clamped) to
// fall on window boundaries of a configured step that divides the query
// step, the tier materializes the requested function, and the rollup
// series covers the whole range — and then delegates to QueryAgg on the
// rollup series with every parameter divided by the tier step, touching no
// raw block at all. The range may extend below the raw series' retention
// base: tiers are materialized before retention trims (retainAge caps the
// raw horizon at the rollup coverage), so month-scale history whose raw
// blocks are deleted stays answerable here. Specs are pre-sorted by
// descending step, so the coarsest satisfying tier (fewest rollup samples
// read) wins. ok reports whether a tier answered; (false, nil, nil) falls
// back to the raw path.
func (db *DB) rollupAgg(name string, from, to, step int, f AggFunc) ([]float64, bool, error) {
	if len(db.opt.Rollups) == 0 || from < 0 || from > to {
		return nil, false, nil
	}
	if _, _, _, isRollup := parseRollupName(name); isRollup {
		return nil, false, nil
	}
	_, total, ok := db.seriesBounds(name)
	if !ok {
		return nil, false, nil // raw path reports ErrUnknownSeries
	}
	// from below the raw base is NOT declined: answering history whose raw
	// blocks retention already deleted is the point of keeping tiers — the
	// materialization guard in retainAge guarantees every trimmed window
	// was rolled up first, and the rbase check below still verifies this
	// tier actually covers the range.
	toC := to
	if toC > total {
		toC = total
	}
	if toC <= from {
		return nil, false, nil
	}
	for _, sp := range db.opt.Rollups {
		t := sp.Step
		if step%t != 0 || from%t != 0 || toC%t != 0 {
			continue
		}
		if !containsAgg(sp.Aggs, f) {
			continue
		}
		rname := rollupName(name, f, t)
		rbase, rtotal, ok := db.seriesBounds(rname)
		if !ok || rbase > from/t || rtotal < toC/t {
			continue // tier not materialized far enough; try a finer one
		}
		// Every sub-window is complete (toC is tier-aligned), so
		// aggregates compose exactly: min of mins, max of maxes, sum of
		// sums, and mean of means over equal-sized windows.
		out, err := db.QueryAgg(rname, from/t, toC/t, step/t, f)
		return out, true, err
	}
	return nil, false, nil
}

func containsAgg(aggs []AggFunc, f AggFunc) bool {
	for _, a := range aggs {
		if a == f {
			return true
		}
	}
	return false
}
