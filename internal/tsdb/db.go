// Package tsdb is an embedded time-series store with pluggable block
// compression, organized as a sharded, concurrent ingestion engine: series
// are hashed across independent shards so appends to different series never
// contend on a lock, full blocks are compressed off the append path by a
// bounded worker pool, and a per-shard LRU cache keeps recently decoded
// blocks in memory so repeated range queries skip the disk read and decode
// (cold misses for one block are single-flighted: one loader, everyone
// else waits).
//
// Block compression goes through the codec.Codec interface. The default is
// CAMEO (lossy, autocorrelation-preserving, built from Options.Compression)
// but any registered codec — the lossless XOR family (gorilla, chimp, elf)
// or the pointwise-error-bounded family (pmc, swing, simpiece) — can be
// selected per store via Options.Codec, trading fidelity for ratio per
// workload.
//
// On disk the layout is one directory per series, one compressed block
// file per BlockSize samples, plus an optional verbatim tail. Block files
// carry a small versioned header (magic, format version, codec ID, sample
// count, and — for bit-stream codecs — a checkpoint sidecar that lets cold
// partial reads seek instead of replaying the whole block), so a store may
// mix blocks written under different codecs and
// every block stays self-describing; headerless blocks written by the
// pre-codec engine are still recognized (by their CAM1 payload magic) and
// decoded as CAMEO. Every file is written with an fsynced atomic rename
// (data and directory entry reach stable storage before success), so the
// store is crash-consistent even across OS crashes and power loss, and
// always reopenable. Because async workers may persist blocks out of
// order, Open additionally recovers from crash artifacts: stale *.tmp
// files are deleted, block files orphaned beyond a hole in the sequence (a
// crash landed block k+1 but not k) are discarded so the contiguous prefix
// remains queryable, and .tail files whose start stamp predates the
// durable block frontier (their samples were since cut into a block) are
// dropped instead of replayed twice.
//
// Concurrency model: Append and Query may be called freely from any number
// of goroutines. Sync blocks until every queued compression is durable and
// surfaces the first worker error; Flush additionally persists in-memory
// tails. Close must not race with other calls. A Query that overlaps a
// block still being compressed waits for that block, so reads always
// observe the codec's reconstruction of completed blocks — never a
// raw/decoded mix that would change once the worker finishes.
package tsdb

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/series"
)

// Options configures a DB.
type Options struct {
	// Compression holds the CAMEO options applied to every full block
	// (Lags and Epsilon / TargetRatio required, as for core.Compress).
	// Consulted only when Codec is nil.
	Compression core.Options
	// Codec selects the block compressor. nil (the default) builds a CAMEO
	// codec from Compression, preserving the engine's original behavior;
	// any other registered codec — lossless (codec.Gorilla, codec.Chimp,
	// codec.Elf) or pointwise-lossy (codec.PMC, codec.Swing,
	// codec.SimPiece) — may be supplied instead, in which case Compression
	// is ignored. The codec governs how new blocks are written; reads
	// resolve each block's codec from its on-disk header, so reopening a
	// store under a different codec keeps every existing block readable.
	Codec codec.Codec
	// BlockSize is the number of samples per compressed block (default
	// 4096; must be at least the codec's minimum — for CAMEO the
	// streaming minimum 4x lags[*window]).
	BlockSize int
	// Shards is the number of independent lock domains series names are
	// hashed into (default 16). Appends and queries on series in different
	// shards never contend. Shards=1 restores a single global lock.
	Shards int
	// Workers sets the block-compression worker pool: 0 picks
	// runtime.GOMAXPROCS(0) workers, a positive value that many, and a
	// negative value disables the pool entirely so Append compresses
	// blocks inline (the original synchronous behavior).
	Workers int
	// CacheBlocks bounds the total decoded blocks kept in memory for
	// queries: 0 picks the default of 128 blocks, a positive value that
	// many, and a negative value disables caching. The budget is split
	// evenly across per-shard LRU caches, and all blocks of one series
	// hash to one shard — so a workload scanning a single hot series
	// should budget CacheBlocks at Shards times its working set (budgets
	// below Shards round up to one block per shard).
	CacheBlocks int
	// CheckpointInterval is the checkpoint spacing, in samples, that the
	// bit-stream codecs (gorilla, chimp, elf) record in each block's
	// sidecar so cold partial reads can seek instead of replaying the
	// whole block: 0 picks the codec default
	// (codec.DefaultCheckpointInterval, 128), a positive value
	// checkpoints every that many samples, and a negative value disables
	// checkpoints entirely (blocks stay on the version-1 layout). Smaller
	// intervals cut the replay work of a cold point read (O(overlap + k)
	// samples) at ~11 sidecar bytes per checkpoint; the compressed bit
	// stream itself is identical under every setting, so blocks written
	// under different intervals coexist and replay bit-identically. The
	// knob is ignored by codecs without checkpoint support.
	CheckpointInterval int

	// ReadAhead is the cursor prefetch depth: while a query consumes one
	// chunk, up to ReadAhead upcoming segments of the range are read and
	// decoded concurrently on the compression worker pool, so a cold
	// multi-block scan overlaps file reads and decodes with consumption
	// instead of paying them serially. The streamed samples are
	// bit-identical to the sequential path's — prefetch only moves work,
	// never changes it. 0 (the default) disables prefetch, which is the
	// right setting for single-core hosts where there is no idle CPU to
	// overlap onto; negative is an error. Ignored when Workers < 0 (no
	// pool to prefetch on).
	ReadAhead int
	// QueryFanout caps the per-call concurrency of the multi-series read
	// path (QueryMulti, QueryAggMulti, MultiCursor): at most this many
	// per-series scans run at once per call. 0 picks the worker-pool
	// width (Workers after defaulting); negative is an error.
	QueryFanout int

	// Streaming, when true, spreads each block's compression across the
	// appends that feed it (amortized ingest) instead of paying the whole
	// cost when a block cuts: every Append performs a small, latency-capped
	// slice of the in-progress block's compression on its own goroutine,
	// paced to finish slightly ahead of the next cut. Blocks written this
	// way are byte-identical to batch-compressed ones (the streaming engine
	// is a deterministic time-slicing of the batch algorithm), so every
	// reader and every recovery path treats them identically. Requires a
	// codec with a streaming encode path (CAMEO); readers that reach a
	// still-streaming block, and Sync/Flush, finish it on their own
	// goroutine rather than waiting for future appends.
	Streaming bool
	// MaxAppendLatency caps the compression work a single Append performs
	// in streaming mode: the paced work slice stops at this wall-clock
	// budget, deferring the remainder to later appends (or to the forced
	// finish at the next cut, when arrival outruns pacing). Default 1ms.
	// Ignored unless Streaming is set.
	MaxAppendLatency time.Duration

	// Retention, when positive, bounds every raw series to roughly its
	// newest Retention samples: each Maintain pass deletes the whole
	// durable blocks lying entirely below the horizon (total appended
	// samples minus Retention). Trims are recorded in a per-series trim
	// file before any file is deleted, so a crash mid-trim recovers to
	// either the pre- or the post-trim sample set. Rollup series are
	// governed by their spec's Retention instead, and raw trims never
	// outrun rollup materialization. 0 disables age retention.
	Retention int
	// RetainBytes, when positive, bounds the store's total durable block
	// bytes: each Maintain pass deletes oldest-first blocks from the
	// series holding the most block bytes until the store fits the
	// budget. 0 disables the byte budget.
	RetainBytes int64
	// CompactMinFill is the fill fraction below which adjacent durable
	// blocks become merge candidates: Maintain coalesces runs of blocks
	// each holding fewer than CompactMinFill*BlockSize samples (the
	// signature of trickle-ingest flushes) into blocks of up to BlockSize
	// samples, merging compressed payloads so queries stay bit-identical.
	// 0 picks 0.5; a negative value disables compaction.
	CompactMinFill float64
	// Rollups declares downsampled tiers: each Maintain pass materializes
	// the configured window aggregates of every raw series into ordinary
	// series named "<series>@<agg>:<step>" (via the aggregate pushdown —
	// no raw samples are materialized), and QueryAgg transparently
	// answers tier-aligned aggregate queries from the coarsest rollup
	// that covers them.
	Rollups []RollupSpec
	// LifecycleInterval, when positive, runs Maintain on a background
	// ticker between Open and Close. When zero, lifecycle jobs run only
	// when Maintain is called explicitly.
	LifecycleInterval time.Duration
}

func (o *Options) withDefaults() error {
	if o.BlockSize == 0 {
		o.BlockSize = 4096
	}
	if o.Shards == 0 {
		o.Shards = 16
	}
	if o.Shards < 0 {
		return fmt.Errorf("tsdb: Shards must be positive, got %d", o.Shards)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 128
	}
	if o.ReadAhead < 0 {
		return fmt.Errorf("tsdb: ReadAhead must be non-negative, got %d", o.ReadAhead)
	}
	if o.QueryFanout < 0 {
		return fmt.Errorf("tsdb: QueryFanout must be non-negative, got %d", o.QueryFanout)
	}
	if o.Codec == nil {
		if err := o.Compression.Validate(); err != nil {
			return err
		}
		o.Codec = codec.NewCAMEO(o.Compression)
	}
	o.Codec = codec.ConfigureCheckpointInterval(o.Codec, o.CheckpointInterval)
	if o.MaxAppendLatency < 0 {
		return fmt.Errorf("tsdb: MaxAppendLatency must be non-negative, got %v", o.MaxAppendLatency)
	}
	if o.Streaming {
		if _, ok := o.Codec.(codec.StreamEncoder); !ok {
			return fmt.Errorf("tsdb: Streaming requires a codec with a streaming encode path, %q has none", o.Codec.Name())
		}
		if o.MaxAppendLatency == 0 {
			o.MaxAppendLatency = time.Millisecond
		}
	}
	if o.BlockSize < o.minBlock() {
		return fmt.Errorf("tsdb: BlockSize %d below codec %q's minimum %d", o.BlockSize, o.Codec.Name(), o.minBlock())
	}
	if o.BlockSize > codec.MaxBlockSamples {
		return fmt.Errorf("tsdb: BlockSize %d above the block format's %d-sample cap", o.BlockSize, codec.MaxBlockSamples)
	}
	if o.Retention < 0 {
		return fmt.Errorf("tsdb: Retention must be non-negative, got %d", o.Retention)
	}
	if o.RetainBytes < 0 {
		return fmt.Errorf("tsdb: RetainBytes must be non-negative, got %d", o.RetainBytes)
	}
	if o.CompactMinFill == 0 {
		o.CompactMinFill = 0.5
	}
	if o.CompactMinFill > 1 {
		return fmt.Errorf("tsdb: CompactMinFill must be at most 1, got %v", o.CompactMinFill)
	}
	return o.normalizeRollups()
}

// minBlock is the smallest sample count the configured codec can encode
// (for CAMEO, the streaming minimum 4x lags, scaled by the aggregation
// window when one is set; 1 for codecs without a minimum). It answers for
// pre-withDefaults Options too — a nil Codec means the CAMEO default, so
// the minimum derives from Compression.
func (o *Options) minBlock() int {
	if o.Codec == nil {
		return codec.NewCAMEO(o.Compression).MinBlock()
	}
	return codec.MinBlock(o.Codec)
}

// ErrUnknownSeries is returned by queries on series never appended to.
var ErrUnknownSeries = errors.New("tsdb: unknown series")

// ErrBadSeriesName is returned by Append for series names that cannot be
// mapped to a directory of their own under the store root.
var ErrBadSeriesName = errors.New("tsdb: invalid series name")

// ErrInvalidRange is returned by Query, QueryInto, Cursor, and QueryAgg
// when from > to — an inverted range is a caller bug, and answering it
// with a silent empty result would hide that. (Out-of-bounds ranges in
// the right order still clamp: from < 0 reads from the start, to past the
// series end reads to the end, and from == to is a legitimate empty
// range.)
var ErrInvalidRange = errors.New("tsdb: invalid query range")

// validateSeriesName rejects the names whose escaped form would not be a
// plain child directory of the store root: url.PathEscape leaves '.'
// unescaped, so "." and ".." survive as-is and would address the root
// itself or its parent, and the empty name escapes to the empty string.
// Every other name escapes to a safe single path element.
func validateSeriesName(name string) error {
	switch name {
	case "", ".", "..":
		return fmt.Errorf("%w: %q", ErrBadSeriesName, name)
	}
	return nil
}

// ValidateSeriesName reports whether name could ever be appended to
// (ErrBadSeriesName otherwise) — the same check Append applies. Callers
// batching appends across several series (the HTTP server's write
// endpoint) use it to reject a bad batch up front, before any series in
// it has been mutated.
func ValidateSeriesName(name string) error {
	return validateSeriesName(name)
}

// DB is an embedded codec-compressed time-series store.
type DB struct {
	dir    string
	opt    Options
	shards []*shard
	pool   *workerPool // nil when compression is synchronous

	// blockBufs recycles the BlockSize-sample buffers that Append cuts
	// pending blocks into; workers return them once a block is durable, so
	// sustained ingest stops allocating one per block. readBufs recycles
	// the compressed-file byte buffers Query decodes blocks from.
	blockBufs sync.Pool
	readBufs  sync.Pool

	blocksWritten atomic.Uint64
	bytesWritten  atomic.Uint64
	rangeDecodes  atomic.Uint64 // cold partial decodes that skipped the full-block reconstruction (native or checkpointed)
	aggPushdowns  atomic.Uint64 // blocks aggregated straight from the compressed form without materializing

	// Parallel-read observability: hits are prefetched chunks a cursor
	// consumed (the overlap paid off), wasted are prefetches that completed
	// but were thrown away by an early Close or a mid-stream error, and
	// fanoutQueries counts multi-series scatter-gather calls.
	prefetchHits   atomic.Uint64
	prefetchWasted atomic.Uint64
	fanoutQueries  atomic.Uint64

	// blockBufGets/blockBufPuts audit the pooled-buffer protocol: every
	// buffer handed out by getBlockBuf must eventually come back through
	// putBlockBuf (tests assert the balance after Close — a drift is a
	// pool leak on some read or error path).
	blockBufGets atomic.Int64
	blockBufPuts atomic.Int64

	// Ingest-latency observability: every Append records its wall time in
	// the allocation-free histogram; streaming mode additionally counts
	// blocks compressed incrementally and streams force-finished (by a
	// reader, Sync/Flush, or a cut outrunning the pacing).
	appendLatency metrics.Histogram
	streamBlocks  atomic.Uint64
	streamForced  atomic.Uint64

	// Read-path latency histograms: whole-query wall time split by whether
	// the scan touched disk (cold — at least one block was read or decoded
	// off the compressed file) or was served entirely from the decoded
	// cache, pending reconstructions, and the tail (warm). decodeHists
	// times individual cold block decodes per codec, keyed by codec ID
	// (built at Open, read-only afterwards); ckptSeekBytes distributes the
	// compressed bytes traversed per checkpoint-assisted read, the per-seek
	// view of the CheckpointBytes total.
	queryCold     metrics.Histogram
	queryWarm     metrics.Histogram
	ckptSeekBytes metrics.Histogram
	lifecyclePass metrics.Histogram // Maintain pass wall time
	decodeHists   map[uint8]*metrics.Histogram

	// Checkpoint-sidecar observability: seeks counts cold reads of
	// bit-stream blocks served through the checkpoint sidecar (range and
	// window-aggregate decodes alike); bytes accumulates the compressed
	// stream bytes those reads actually traversed (the O(overlap + k)
	// guarantee, measurable).
	checkpointSeeks atomic.Uint64
	checkpointBytes atomic.Uint64

	// gen issues store-unique block revisions: every blockMeta carries one,
	// and the decoded-block cache keys on (path, gen), so a path recycled by
	// compaction or delete + re-ingest can never alias stale cached samples.
	gen atomic.Uint64

	// Lifecycle observability (see Maintain in lifecycle.go).
	compactionRuns  atomic.Uint64
	compactedBlocks atomic.Uint64
	rollupSamples   atomic.Uint64
	trimmedBlocks   atomic.Uint64
	trimmedBytes    atomic.Uint64
	seriesDeleted   atomic.Uint64
	lifecyclePasses atomic.Uint64
	lifecycleErrors atomic.Uint64

	// lifecycleMu serializes whole lifecycle operations (Maintain passes
	// and DeleteSeries): while one holds it, the durable block index only
	// changes by appending at the frontier, which is what lets compaction
	// and retention verify-and-swap snapshots safely.
	lifecycleMu   sync.Mutex
	lifecycleStop chan struct{} // closed by Close to stop the background loop
	lifecycleDone chan struct{} // closed by the loop goroutine on exit

	errMu    sync.Mutex
	failed   int   // failed block compressions awaiting repair
	firstErr error // first unrepaired failure, surfaced by Append/Sync/Flush
}

// nextGen issues a fresh block revision for cache identity.
func (db *DB) nextGen() uint64 { return db.gen.Add(1) }

// Open creates or reopens a store rooted at dir.
func Open(dir string, opt Options) (*DB, error) {
	if err := opt.withDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opt: opt}
	db.decodeHists = make(map[uint8]*metrics.Histogram)
	for _, c := range codec.Registered() {
		db.decodeHists[c.ID()] = &metrics.Histogram{}
	}
	db.shards = make([]*shard, opt.Shards)
	// The decoded-block budget is split evenly across per-shard caches (no
	// global cache mutex). All blocks of one series live in one shard, so a
	// single hot series sees CacheBlocks/Shards slots, not CacheBlocks —
	// size the budget for the shard count. A budget smaller than the shard
	// count rounds up to one slot per shard.
	perShard := opt.CacheBlocks / opt.Shards
	if perShard < 1 {
		perShard = 1
	}
	for i := range db.shards {
		db.shards[i] = &shard{series: make(map[string]*seriesState)}
		if opt.CacheBlocks > 0 {
			db.shards[i].cache = newBlockCache(perShard)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			return nil, fmt.Errorf("tsdb: undecodable series directory %q: %w", e.Name(), err)
		}
		// Refuse directories that do not canonically encode a valid series
		// name: a planted "%2E%2E" decodes to "..", whose seriesDir resolves
		// to the PARENT of the store root, so loading it would read — and
		// crash-cleanup would delete — files outside the store. Legitimate
		// directories always round-trip (seriesDir writes url.PathEscape of
		// a validated name), so this rejects only tampering or corruption.
		if validateSeriesName(name) != nil || url.PathEscape(name) != e.Name() {
			return nil, fmt.Errorf("tsdb: series directory %q does not canonically encode a valid series name", e.Name())
		}
		sdir := filepath.Join(dir, e.Name())
		if _, serr := os.Stat(filepath.Join(sdir, tombstoneFile)); serr == nil {
			// A DeleteSeries crashed between writing its tombstone and
			// finishing the file removal; complete the deletion instead of
			// resurrecting a half-deleted series.
			if err := removeSeriesDir(sdir); err != nil {
				return nil, fmt.Errorf("tsdb: completing deletion of series %q: %w", name, err)
			}
			continue
		}
		st, err := db.loadSeries(name)
		if err != nil {
			return nil, fmt.Errorf("tsdb: loading series %q: %w", name, err)
		}
		db.shardFor(name).series[name] = st
	}
	if opt.Workers > 0 {
		db.pool = newWorkerPool(db, opt.Workers)
	}
	if opt.LifecycleInterval > 0 {
		db.lifecycleStop = make(chan struct{})
		db.lifecycleDone = make(chan struct{})
		go db.lifecycleLoop(opt.LifecycleInterval)
	}
	return db, nil
}

// Lifecycle bookkeeping files inside a series directory. trimFile records
// the retention base (first retained sample index) and is atomically
// written before any block below it is deleted; tombstoneFile marks a
// DeleteSeries in progress, so recovery finishes the deletion rather than
// resurrecting whatever files a crash left behind.
const (
	trimFile      = "trim"
	tombstoneFile = "tombstone"
)

// removeSeriesDir deletes a series directory in tombstone-last order:
// content files first, the tombstone second, the directory last. Whatever
// the interleaving of a crash, a surviving tombstone means the deletion
// resumes on the next Open, and a missing one means it completed.
func removeSeriesDir(sdir string) error {
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == tombstoneFile {
			continue
		}
		if err := os.Remove(filepath.Join(sdir, e.Name())); err != nil {
			return err
		}
	}
	if err := os.Remove(filepath.Join(sdir, tombstoneFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return os.Remove(sdir)
}

// seriesDir maps a series name to its directory, escaping path separators
// and other unsafe characters (names are user input; the store must never
// write outside its root). The names PathEscape cannot make safe — "", ".",
// ".." — are rejected by validateSeriesName before any directory is created.
func (db *DB) seriesDir(name string) string {
	return filepath.Join(db.dir, url.PathEscape(name))
}

// loadSeries scans a series directory, indexing its blocks, reading the
// tail file if one is still live, and cleaning up crash artifacts:
// leftover *.tmp files from interrupted atomic writes are removed, blocks
// entirely below the trim file's base or fully covered by an earlier
// block (a retention trim or compaction merge crashed before deleting its
// source files) are deleted, blocks beyond a hole in the start sequence
// (an async writer persisted a later block but crashed before an earlier
// one) are deleted so the remaining run is contiguous from the base, and
// tail files whose start stamp no longer matches the durable block
// frontier (the tail was cut into a block after the last Flush) are
// discarded rather than replayed as duplicate samples.
func (db *DB) loadSeries(name string) (*seriesState, error) {
	st := db.newSeriesState()
	sdir := db.seriesDir(name)
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return nil, err
	}
	if data, err := os.ReadFile(filepath.Join(sdir, trimFile)); err == nil {
		v, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || v < 0 {
			return nil, fmt.Errorf("malformed trim file %q", strings.TrimSpace(string(data)))
		}
		st.base = v
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	type tailFile struct {
		start int
		path  string
	}
	var tails []tailFile
	legacyTail := "" // pre-stamp "tail.raw" from the original engine
	for _, e := range entries {
		base := e.Name()
		switch {
		case base == trimFile || base == tombstoneFile:
			// Lifecycle bookkeeping, handled above / by Open.
		case base == "tail.raw":
			legacyTail = filepath.Join(sdir, base)
		case strings.HasSuffix(base, ".tmp"):
			// Leftover from an atomicWrite interrupted mid-crash.
			if err := os.Remove(filepath.Join(sdir, base)); err != nil {
				return nil, fmt.Errorf("removing stale tempfile %q: %w", base, err)
			}
		case strings.HasSuffix(base, ".blk"):
			start, err := strconv.Atoi(strings.TrimSuffix(base, ".blk"))
			if err != nil {
				return nil, fmt.Errorf("bad block name %q: %w", base, err)
			}
			path := filepath.Join(sdir, base)
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			// Index from the fixed-size header alone: Open stays O(blocks),
			// not O(samples), so reopening a large archive is a directory
			// scan, not a full decode. (Body corruption consequently
			// surfaces at Query time, not here; a mangled header still
			// fails the open.)
			n, codecID, hdrOff, err := readBlockHeader(path)
			if err != nil {
				return nil, fmt.Errorf("block %q: %w", base, err)
			}
			st.blocks = append(st.blocks, blockMeta{start: start, n: n, path: path, bytes: info.Size(), codecID: codecID, hdrOff: hdrOff, gen: db.nextGen()})
		case strings.HasSuffix(base, ".tail"):
			start, err := strconv.Atoi(strings.TrimSuffix(base, ".tail"))
			if err != nil {
				return nil, fmt.Errorf("bad tail name %q: %w", base, err)
			}
			tails = append(tails, tailFile{start: start, path: filepath.Join(sdir, base)})
		}
	}
	sort.Slice(st.blocks, func(i, j int) bool { return st.blocks[i].start < st.blocks[j].start })
	frontier := st.base
	var kept []blockMeta
scan:
	for i, b := range st.blocks {
		switch {
		case b.start+b.n <= frontier:
			// Fully covered by the retained run: below the trim base (an
			// interrupted retention delete) or inside an already-kept merged
			// block (a compaction that crashed before removing its sources).
			// Either way the samples live on in the coverage, so the file is
			// superseded.
			if err := os.Remove(b.path); err != nil {
				return nil, fmt.Errorf("removing superseded block %q: %w", b.path, err)
			}
		case b.start < frontier:
			// Straddles established coverage — no writer produces this (trims
			// and merges align to whole-block boundaries), so treat it as a
			// corrupt artifact rather than double-counting its samples.
			if err := os.Remove(b.path); err != nil {
				return nil, fmt.Errorf("removing overlapping block %q: %w", b.path, err)
			}
		case b.start == frontier:
			kept = append(kept, b)
			frontier += b.n
		default:
			// Orphaned beyond a crash hole: unreachable by contiguous
			// indexing, so discard the files and keep the prefix.
			for _, orphan := range st.blocks[i:] {
				if err := os.Remove(orphan.path); err != nil {
					return nil, fmt.Errorf("removing orphaned block %q: %w", orphan.path, err)
				}
			}
			break scan
		}
	}
	st.blocks = kept
	st.assigned = frontier
	for _, tf := range tails {
		if tf.start != st.assigned {
			// Superseded by a block cut after the Flush that wrote it.
			if err := os.Remove(tf.path); err != nil {
				return nil, fmt.Errorf("removing stale tail %q: %w", tf.path, err)
			}
			continue
		}
		data, err := os.ReadFile(tf.path)
		if err != nil {
			return nil, err
		}
		ir, err := series.DecodeIrregular(data)
		if err != nil {
			return nil, fmt.Errorf("tail %q: %w", tf.path, err)
		}
		st.tail = ir.Decompress()
		st.addTailStamp(tf.start)
		st.tailClean = true
	}
	if legacyTail != "" {
		// The original engine stored the tail as "tail.raw" with no start
		// stamp; it was always the live tail (appends were synchronous).
		// Migrate it to the stamped format rather than silently dropping
		// its samples — unless a stamped live tail already superseded it.
		if st.tail == nil {
			data, err := os.ReadFile(legacyTail)
			if err != nil {
				return nil, err
			}
			ir, err := series.DecodeIrregular(data)
			if err != nil {
				return nil, fmt.Errorf("tail %q: %w", legacyTail, err)
			}
			st.tail = ir.Decompress()
			if err := atomicWrite(db.tailPath(name, st.assigned), data); err != nil {
				return nil, err
			}
			st.addTailStamp(st.assigned)
			st.tailClean = true
		}
		if err := os.Remove(legacyTail); err != nil {
			return nil, err
		}
	}
	st.total = st.assigned + len(st.tail)
	return st, nil
}

// buildBlock compresses one block through the configured codec and
// atomically writes it with the versioned block header, returning its
// metadata and decoded reconstruction (the values a reader of the persisted
// block will observe). It performs no shard-state mutation, so workers call
// it without holding any lock.
func (db *DB) buildBlock(name string, start int, block []float64) (blockMeta, []float64, error) {
	c := db.codecForSeries(name)
	data, hdrOff, recon, err := codec.EncodeBlockRecon(c, block)
	if err != nil {
		return blockMeta{}, nil, err
	}
	meta, err := db.writeBlockData(name, start, data, hdrOff, c.ID())
	if err != nil {
		return blockMeta{}, nil, err
	}
	meta.n = len(block)
	return meta, recon, nil
}

// writeBlockData atomically persists an already-encoded block and accounts
// it, returning its metadata (sample count left for the caller to fill —
// buildBlock and the streaming seal both know it without re-parsing the
// header). Shared by the batch path (buildBlock) and the streaming seal,
// whose encode happened incrementally on the append path.
func (db *DB) writeBlockData(name string, start int, data []byte, hdrOff int, codecID uint8) (blockMeta, error) {
	path := filepath.Join(db.seriesDir(name), fmt.Sprintf("%012d.blk", start))
	if err := atomicWrite(path, data); err != nil {
		return blockMeta{}, err
	}
	db.blocksWritten.Add(1)
	db.bytesWritten.Add(uint64(len(data)))
	return blockMeta{start: start, path: path, bytes: int64(len(data)), codecID: codecID, hdrOff: hdrOff, gen: db.nextGen()}, nil
}

// Sync blocks until every queued block compression has been persisted and
// returns the first asynchronous worker error, if any. In streaming mode
// it first finishes every in-progress streaming block on the calling
// goroutine (their completion otherwise rides on future appends).
func (db *DB) Sync() error {
	if db.opt.Streaming {
		db.finishAllStreams()
	}
	if db.pool != nil {
		db.pool.drain()
	}
	return db.err()
}

// Flush drains in-flight compressions, synchronously retries any block
// whose async compression failed, then persists the in-memory tail of
// every series: long tails are compressed as a final block, short ones
// stored verbatim in a start-stamped .tail file. Tails of unaffected
// series are persisted even when another series has a failure, so one bad
// block cannot cost every series its buffered samples; once every failed
// block is repaired the store resumes normal operation. Failures across
// series are aggregated with errors.Join — an operator reading a shutdown
// log sees every series that lost its flush, not just the first.
func (db *DB) Flush() error {
	db.Sync() // drain the bulk; failures are retried below and re-checked at return
	var errs []error
	for _, sh := range db.shards {
		sh.mu.RLock()
		names := make([]string, 0, len(sh.series))
		for name := range sh.series {
			names = append(names, name)
		}
		sh.mu.RUnlock()
		for _, name := range names {
			if err := db.flushSeries(sh, name); err != nil {
				errs = append(errs, fmt.Errorf("series %q: %w", name, err))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return db.err()
}

// flushSeries repairs failed blocks and persists the tail of one series.
// An Append racing the Sync drain above can cut a block that is still in
// flight when we get here; stamping the tail at st.assigned then would
// count that undurable block, and a crash before it lands would make
// recovery discard the tail as superseded — silently losing samples Flush
// reported durable. So before stamping, wait (without holding the shard
// lock, which the workers need to publish) until no healthy pending block
// remains; only failed blocks, which the repair below persists
// synchronously, may still be pending at the stamp. Raising st.flushing
// first makes Append defer further cuts for this series, so the pending
// set only shrinks and the wait is bounded even under sustained ingest —
// deferred samples simply accumulate in the tail, which this flush
// persists anyway.
func (db *DB) flushSeries(sh *shard, name string) error {
	sh.mu.Lock()
	st := sh.series[name]
	if st == nil {
		sh.mu.Unlock()
		return nil
	}
	st.flushing++
	cutDone := false
	for {
		var inflight []chan struct{}
		for _, pb := range st.pending {
			if pb.err == nil {
				inflight = append(inflight, pb.done)
			}
		}
		if len(inflight) > 0 {
			sh.mu.Unlock()
			if db.opt.Streaming {
				// A streaming block completes at arrival pace; with ingest
				// paused (or this flush deferring cuts) that could be never.
				// Finish it here so the waits below are bounded.
				db.forceFinishStream(sh, name, st)
			}
			for _, done := range inflight {
				<-done
			}
			sh.mu.Lock()
			continue
		}
		if !cutDone && db.pool != nil && len(st.tail) >= db.opt.BlockSize {
			// Cuts deferred while we waited can have grown the tail well
			// past BlockSize. Cut the full blocks now and compress them on
			// the pool — off the shard lock and in parallel — rather than
			// letting flushTailLocked compress one oversized block under
			// the exclusive lock, stalling every series in the shard. One
			// pass only: otherwise sustained ingest could re-extend the
			// flush each round, forever.
			cutDone = true
			var cut []*pendingBlock
			for len(st.tail) >= db.opt.BlockSize {
				cut = append(cut, db.cutBlockLocked(st))
			}
			sh.mu.Unlock()
			for _, pb := range cut {
				db.pool.submit(compressJob{name: name, sh: sh, st: st, pb: pb})
			}
			for _, pb := range cut {
				<-pb.done
			}
			sh.mu.Lock()
			continue
		}
		err := db.repairPendingLocked(sh, name, st)
		if err == nil {
			err = db.flushTailLocked(sh, name, st)
		}
		st.flushing--
		sh.mu.Unlock()
		return err
	}
}

// repairPendingLocked synchronously re-persists blocks whose async
// compression failed (their raw samples were retained); the caller holds
// the shard lock. Without this, a single failed block would leave a
// permanent hole that crash recovery resolves by discarding everything
// after it.
func (db *DB) repairPendingLocked(sh *shard, name string, st *seriesState) error {
	for start, pb := range st.pending {
		if pb.err == nil {
			continue // still in flight; flushSeries waits these out before the tail stamp
		}
		meta, recon, err := db.buildBlock(name, start, pb.raw)
		if err != nil {
			return err
		}
		delete(st.pending, start)
		st.insertBlock(meta)
		db.putBlockBuf(pb.raw)
		pb.raw = nil
		sh.cache.put(meta.key(), recon)
		db.noteRepair()
	}
	return nil
}

// tailPath names the verbatim tail file for a series; the start stamp lets
// Open distinguish a live tail from one superseded by a later block cut.
func (db *DB) tailPath(name string, start int) string {
	return filepath.Join(db.seriesDir(name), fmt.Sprintf("%012d.tail", start))
}

// pruneTailStampsLocked removes the on-disk tail files of a series whose
// coverage is fully durable: a tail stamped at start s is superseded once
// contiguous durable blocks reach past s, because the block cut at s
// covers at least the tail's samples. Files stamped at or beyond the
// frontier are kept — deleting them on the promise of an in-flight block
// would lose durable data if a crash kept that block from ever landing.
// The stamps are tracked in memory, so no directory scan is needed.
func (db *DB) pruneTailStampsLocked(name string, st *seriesState) {
	frontier := st.durableFrontier()
	keep := st.tailStamps[:0]
	for _, s := range st.tailStamps {
		if s < frontier {
			_ = os.Remove(db.tailPath(name, s))
		} else {
			keep = append(keep, s)
		}
	}
	st.tailStamps = keep
}

// flushTailLocked persists one series' tail; the caller holds the shard
// lock. The tail can still exceed BlockSize when Appends raced the flush's
// final cut round (see flushSeries); it is then compressed as a single
// oversized block, which the index supports — blocks are keyed by start
// and sample count, not assumed uniform.
func (db *DB) flushTailLocked(sh *shard, name string, st *seriesState) error {
	threshold := db.opt.minBlock()
	if threshold <= 1 {
		// A codec without an encoding minimum gains nothing from cutting a
		// partial tail into a permanent block at every Flush — under
		// trickle ingest with periodic flushes that would fragment the
		// store into tiny blocks that never coalesce. Keep partial tails
		// in the replayable verbatim file until a full block accumulates;
		// CAMEO (whose minimum reflects its statistic) still compresses
		// tails past that minimum, as the engine always has.
		threshold = db.opt.BlockSize
	}
	switch {
	case len(st.tail) == 0:
		// Nothing buffered; superseded tail files are pruned below.
	case len(st.tail) >= threshold:
		meta, recon, err := db.buildBlock(name, st.assigned, st.tail)
		if err != nil {
			return err
		}
		st.insertBlock(meta)
		st.assigned += meta.n
		st.tail = st.tail[:0]
		st.tailClean = false
		sh.cache.put(meta.key(), recon)
	case st.tailClean:
		// The tail file stamped at assigned already holds exactly these
		// samples (nothing appended or cut since it was written or
		// recovered): rewriting and fsyncing it would change nothing.
	default:
		ir := series.FromDense(st.tail)
		if err := atomicWrite(db.tailPath(name, st.assigned), ir.Encode()); err != nil {
			return err
		}
		st.addTailStamp(st.assigned)
		st.tailClean = true
	}
	db.pruneTailStampsLocked(name, st)
	return nil
}

// Query reconstructs samples [from, to) of a series, reading only the
// blocks that overlap the range — a thin collect-the-cursor wrapper around
// Cursor, kept for callers that want the whole range as one slice. Durable
// blocks are served from the decoded LRU cache when possible, cold blocks
// of range-decoding codecs decode only the overlap, and blocks whose
// compression is still in flight are waited for, so the result always
// reflects the compressed reconstruction.
func (db *DB) Query(name string, from, to int) ([]float64, error) {
	return db.QueryInto(name, from, to, nil)
}

// durableBlockAt looks up the durable block starting at start, if the
// series has one. Query uses it to recheck a pending block that failed:
// a concurrent Flush may have repaired the block (moving it from the
// pending set into the durable index) after the query snapshotted it.
func (db *DB) durableBlockAt(sh *shard, name string, start int) (blockMeta, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.series[name]
	if st == nil {
		return blockMeta{}, false
	}
	i := sort.Search(len(st.blocks), func(i int) bool { return st.blocks[i].start >= start })
	if i < len(st.blocks) && st.blocks[i].start == start {
		return st.blocks[i], true
	}
	return blockMeta{}, false
}

// getBlockBuf returns a zeroed-length buffer with BlockSize capacity for a
// pending block's raw samples; putBlockBuf recycles one after its block is
// durable.
func (db *DB) getBlockBuf() []float64 {
	db.blockBufGets.Add(1)
	if v := db.blockBufs.Get(); v != nil {
		return (*(v.(*[]float64)))[:db.opt.BlockSize]
	}
	return make([]float64, db.opt.BlockSize)
}

func (db *DB) putBlockBuf(buf []float64) {
	db.blockBufPuts.Add(1)
	if cap(buf) < db.opt.BlockSize {
		return // undersized stray; counted returned, just not recycled
	}
	db.blockBufs.Put(&buf)
}

// blockBufBalance reports outstanding pooled sample buffers (gets minus
// puts) — zero once every cursor and pending block has released its
// buffer. Tests use it to pin the no-leak invariant of the read path.
func (db *DB) blockBufBalance() int64 {
	return db.blockBufGets.Load() - db.blockBufPuts.Load()
}

// readFilePooled reads a whole file into a pooled byte buffer. The caller
// must call the release func once the contents are no longer referenced
// (codecs decode into fresh slices, so release after Decode is safe).
func (db *DB) readFilePooled(path string) (data []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := int(info.Size())
	var buf []byte
	if v := db.readBufs.Get(); v != nil && cap(*(v.(*[]byte))) >= size {
		buf = (*(v.(*[]byte)))[:size]
	} else {
		buf = make([]byte, size)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		db.readBufs.Put(&buf)
		return nil, nil, err
	}
	return buf, func() { db.readBufs.Put(&buf) }, nil
}

// codecFor resolves the codec that decodes a block: the store's own codec
// when the IDs match, else the registry entry for the header's ID (the
// block was written under a different codec — the store was reopened with
// a new Options.Codec, or predates it).
func (db *DB) codecFor(meta blockMeta) (codec.Codec, error) {
	if c := db.opt.Codec; c.ID() == meta.codecID {
		return c, nil
	}
	return codec.ByID(meta.codecID)
}

// errStaleBlock reports that a block file no longer holds what a
// snapshotted blockMeta describes: compaction republished the start-named
// path with a wider merged block. Readers holding the old meta re-resolve
// against the live index (see currentBlockFor) — the merged
// reconstruction is bit-identical over the old span, so the retry serves
// exactly the same samples.
var errStaleBlock = errors.New("tsdb: block file replaced since snapshot")

// isStaleBlock reports whether a block read failed because the
// snapshotted file was replaced (compaction) or deleted (retention,
// DeleteSeries) after the snapshot was taken.
func isStaleBlock(err error) bool {
	return errors.Is(err, errStaleBlock) || errors.Is(err, fs.ErrNotExist)
}

// currentBlockFor returns the durable block currently covering absolute
// sample index idx. Readers whose snapshotted block went stale
// mid-compaction use it to find the merged replacement.
func (db *DB) currentBlockFor(sh *shard, name string, idx int) (blockMeta, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.series[name]
	if st == nil {
		return blockMeta{}, false
	}
	i := sort.Search(len(st.blocks), func(i int) bool { return st.blocks[i].start+st.blocks[i].n > idx })
	if i < len(st.blocks) && st.blocks[i].start <= idx {
		return st.blocks[i], true
	}
	return blockMeta{}, false
}

// openBlockPayload is the shared preamble of every cold-block read: it
// reads the block file into a pooled buffer and returns the codec payload
// past the header, plus the checkpoint sidecar when the block carries one
// (nil otherwise). The caller must invoke release once neither slice is
// referenced any longer (codecs decode into fresh or caller-owned buffers,
// so releasing after decode is safe). The header is re-parsed and checked
// against the snapshotted meta: block files are named by start index, so
// a compaction can republish this path with a merged block of different
// geometry — decoding the new payload under the old geometry must fail
// loudly (errStaleBlock) and trigger re-resolution, never misread.
func (db *DB) openBlockPayload(meta blockMeta) (payload, sidecar []byte, release func(), err error) {
	data, release, err := db.readFilePooled(meta.path)
	if err != nil {
		return nil, nil, nil, err
	}
	h, sidecar, payload, perr := codec.SplitBlock(data)
	switch {
	case perr == nil:
		if len(data)-len(payload) != meta.hdrOff || h.N != meta.n || h.CodecID != meta.codecID {
			release()
			return nil, nil, nil, fmt.Errorf("%w: %s", errStaleBlock, meta.path)
		}
	case errors.Is(perr, codec.ErrNotBlockFormat) && meta.hdrOff == 0:
		// Legacy headerless CAMEO block, still as indexed.
		payload, sidecar = data, nil
	default:
		release()
		return nil, nil, nil, fmt.Errorf("tsdb: block %s: %w", meta.path, perr)
	}
	return payload, sidecar, release, nil
}

// readBlock returns the decoded reconstruction of a durable block, serving
// it from the owning shard's LRU cache when present. Cold misses for the
// same block are single-flighted through the cache: one goroutine reads
// and decodes, concurrent queries wait for its result. cold, when non-nil,
// is raised if the loader actually ran (the calling query touched disk
// rather than the cache).
func (db *DB) readBlock(cache *blockCache, meta blockMeta, cold *atomic.Bool) ([]float64, error) {
	return cache.getOrFill(meta.key(), func() ([]float64, error) {
		if cold != nil {
			cold.Store(true)
		}
		c, err := db.codecFor(meta)
		if err != nil {
			return nil, fmt.Errorf("tsdb: block %s: %w", meta.path, err)
		}
		payload, _, release, err := db.openBlockPayload(meta)
		if err != nil {
			return nil, err
		}
		defer release()
		start := time.Now()
		dense, err := c.Decode(payload, meta.n)
		if err != nil {
			return nil, fmt.Errorf("tsdb: block %s: %w", meta.path, err)
		}
		db.observeDecode(meta.codecID, start)
		return dense, nil
	})
}

// observeDecode records one cold block decode into the per-codec decode
// histogram (a no-op for codec IDs registered after Open — the map is
// built once so the hot path stays lock-free).
func (db *DB) observeDecode(codecID uint8, start time.Time) {
	if h, ok := db.decodeHists[codecID]; ok {
		h.ObserveDuration(time.Since(start))
	}
}

// noteCheckpointSeek accounts one checkpoint-assisted cold read that
// traversed bits compressed bits: the running totals (CheckpointSeeks,
// CheckpointBytes) plus the per-seek byte distribution. Piecewise decodes
// traverse no bit stream, report 0 bits, and are not seeks.
func (db *DB) noteCheckpointSeek(bits int) {
	if bits <= 0 {
		return
	}
	b := uint64(bits+7) / 8
	db.checkpointSeeks.Add(1)
	db.checkpointBytes.Add(b)
	db.ckptSeekBytes.Observe(b)
}

// observeQuery records one whole-query wall time into the cold or warm
// histogram (cold: the scan read or decoded at least one block off disk).
func (db *DB) observeQuery(start time.Time, cold bool) {
	d := time.Since(start)
	if cold {
		db.queryCold.ObserveDuration(d)
	} else {
		db.queryWarm.ObserveDuration(d)
	}
}

// Stats summarizes one series.
type Stats struct {
	Samples    int
	Blocks     int
	TailLen    int
	DiskBytes  int64
	FirstIndex int // absolute index of the first retained sample (advanced by retention)
}

// SeriesStats reports sample/block/byte counts for a series. Samples
// includes in-flight and tail samples; Blocks and DiskBytes cover only
// durable blocks (call Sync first for a fully settled view).
func (db *DB) SeriesStats(name string) (Stats, error) {
	sh := db.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.series[name]
	if st == nil {
		return Stats{}, fmt.Errorf("%w: %q", ErrUnknownSeries, name)
	}
	s := Stats{Samples: st.total - st.base, Blocks: len(st.blocks), TailLen: len(st.tail), FirstIndex: st.base}
	for _, b := range st.blocks {
		s.DiskBytes += b.bytes
	}
	return s, nil
}

// LatencySummary is a conservative percentile summary of one log-bucket
// latency histogram: P50/P99 are bucket upper bounds (within 2x of the
// true quantile, never under-reporting), Max is exact.
type LatencySummary struct {
	Count uint64        // observations recorded
	P50   time.Duration // median, conservative
	P99   time.Duration // 99th percentile, conservative
	Max   time.Duration // exact worst case since Open
}

func summarize(h *metrics.Histogram) LatencySummary {
	s := h.Snapshot()
	p50, p99, max := s.Summary()
	return LatencySummary{
		Count: s.Count,
		P50:   time.Duration(p50),
		P99:   time.Duration(p99),
		Max:   time.Duration(max),
	}
}

// DBStats aggregates engine-level observability counters across all shards.
type DBStats struct {
	Series        int    // distinct series
	Samples       int    // total samples across series (incl. tails)
	BlocksWritten uint64 // blocks persisted since Open
	BytesWritten  uint64 // compressed bytes persisted since Open
	DiskBytes     int64  // current durable block bytes across series
	CacheShards   int    // independent decoded-block caches (one per shard; 0 = caching off)
	CacheHits     uint64 // decoded-block cache hits, summed across shard caches
	CacheMisses   uint64 // decoded-block cache misses (single-flight leaders), summed
	CacheWaits    uint64 // cold queries that waited on another query's in-flight decode instead of redundantly loading (single-flight followers)
	RangeDecodes  uint64 // cold partial-range decodes pushed down to the codec (no full-block reconstruction; all codecs, native or checkpointed)
	AggPushdowns  uint64 // blocks answered by QueryAgg straight from the compressed form (no samples materialized)

	// Parallel-read counters (zero unless Options.ReadAhead > 0 or the
	// multi-series query path is used).
	PrefetchHits   uint64 // prefetched chunks consumed by a cursor (overlap paid off)
	PrefetchWasted uint64 // prefetches completed but discarded (early Close or mid-stream error)
	FanoutQueries  uint64 // multi-series scatter-gather calls (QueryMulti, QueryAggMulti, MultiCursor)

	// Checkpoint-sidecar effectiveness for the bit-stream codecs.
	CheckpointSeeks uint64 // cold bit-stream block reads served via the checkpoint sidecar (range + aggregate)
	CheckpointBytes uint64 // compressed stream bytes those reads traversed (lower = seeks paying off)
	Queued          int    // compressions waiting in the worker queue
	Inflight        int    // compressions currently executing

	// Append-latency histogram (every Append, all modes; log-spaced
	// buckets, so P50/P99 are conservative upper bounds accurate to within
	// 2x; AppendMax is exact).
	Appends   uint64        // Append calls observed
	AppendP50 time.Duration // median Append wall time
	AppendP99 time.Duration // 99th-percentile Append wall time
	AppendMax time.Duration // worst Append wall time since Open

	// Read-path latency histograms. A Query/QueryInto/QueryAgg call counts
	// as cold when its scan read or decoded at least one block off the
	// compressed file, warm when served entirely from the decoded cache,
	// pending reconstructions, and the tail. DecodeByCodec times individual
	// cold block decodes, keyed by codec name; only codecs with at least one
	// observation appear. LifecyclePass times whole Maintain passes.
	QueryCold     LatencySummary
	QueryWarm     LatencySummary
	DecodeByCodec map[string]LatencySummary
	LifecyclePass LatencySummary

	// Streaming-ingest counters (zero unless Options.Streaming).
	StreamBlocks uint64 // blocks compressed incrementally on the append path
	StreamForced uint64 // streaming blocks force-finished (reader, Sync/Flush, or a cut outrunning the pacing)

	// Lifecycle counters (all zero unless compaction/retention/rollups are
	// configured or Maintain is called explicitly).
	LifecyclePasses uint64 // completed Maintain passes
	LifecycleErrors uint64 // Maintain passes that reported at least one error
	CompactionRuns  uint64 // block groups merged by compaction
	CompactedBlocks uint64 // source blocks consumed by those merges
	RollupSamples   uint64 // samples appended to rollup series
	TrimmedBlocks   uint64 // blocks deleted by retention
	TrimmedBytes    uint64 // compressed bytes reclaimed by retention
	SeriesDeleted   uint64 // series removed by DeleteSeries
}

// Stats reports engine-level totals: write volume, cache effectiveness, and
// worker-pool backlog.
func (db *DB) Stats() DBStats {
	s := DBStats{
		BlocksWritten:   db.blocksWritten.Load(),
		BytesWritten:    db.bytesWritten.Load(),
		RangeDecodes:    db.rangeDecodes.Load(),
		AggPushdowns:    db.aggPushdowns.Load(),
		PrefetchHits:    db.prefetchHits.Load(),
		PrefetchWasted:  db.prefetchWasted.Load(),
		FanoutQueries:   db.fanoutQueries.Load(),
		CheckpointSeeks: db.checkpointSeeks.Load(),
		CheckpointBytes: db.checkpointBytes.Load(),
		LifecyclePasses: db.lifecyclePasses.Load(),
		LifecycleErrors: db.lifecycleErrors.Load(),
		CompactionRuns:  db.compactionRuns.Load(),
		CompactedBlocks: db.compactedBlocks.Load(),
		RollupSamples:   db.rollupSamples.Load(),
		TrimmedBlocks:   db.trimmedBlocks.Load(),
		TrimmedBytes:    db.trimmedBytes.Load(),
		SeriesDeleted:   db.seriesDeleted.Load(),
		StreamBlocks:    db.streamBlocks.Load(),
		StreamForced:    db.streamForced.Load(),
	}
	lat := summarize(&db.appendLatency)
	s.Appends = lat.Count
	s.AppendP50, s.AppendP99, s.AppendMax = lat.P50, lat.P99, lat.Max
	s.QueryCold = summarize(&db.queryCold)
	s.QueryWarm = summarize(&db.queryWarm)
	s.LifecyclePass = summarize(&db.lifecyclePass)
	for _, c := range codec.Registered() {
		h, ok := db.decodeHists[c.ID()]
		if !ok || h.Snapshot().Count == 0 {
			continue
		}
		if s.DecodeByCodec == nil {
			s.DecodeByCodec = make(map[string]LatencySummary)
		}
		s.DecodeByCodec[c.Name()] = summarize(h)
	}
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, st := range sh.series {
			s.Series++
			s.Samples += st.total
			for _, b := range st.blocks {
				s.DiskBytes += b.bytes
			}
		}
		sh.mu.RUnlock()
		if sh.cache != nil {
			s.CacheShards++
			s.CacheHits += sh.cache.hits.Load()
			s.CacheMisses += sh.cache.misses.Load()
			s.CacheWaits += sh.cache.singleFlights.Load()
		}
	}
	if db.pool != nil {
		s.Queued, s.Inflight = db.pool.backlog()
	}
	return s
}

// cacheLen reports the total number of cached decoded blocks across all
// shard caches (for tests).
func (db *DB) cacheLen() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.cache.len()
	}
	return n
}

// Series lists the stored series names in lexicographically sorted order.
// The ordering is a documented guarantee (the facade re-states it), so
// callers may binary-search or diff successive listings.
func (db *DB) Series() []string {
	var names []string
	for _, sh := range db.shards {
		sh.mu.RLock()
		for n := range sh.series {
			names = append(names, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Close stops the background lifecycle loop, flushes all tails, and stops
// the worker pool. The DB must not be used afterwards, and Close must not
// race with Append or Query.
func (db *DB) Close() error {
	if db.lifecycleStop != nil {
		close(db.lifecycleStop)
		<-db.lifecycleDone
		db.lifecycleStop = nil
	}
	err := db.Flush()
	if db.pool != nil {
		db.pool.stop()
		db.pool = nil
	}
	if db.opt.Streaming {
		db.closeStreams()
	}
	return err
}

// noteFailure records a failed block compression. The block stays in its
// series' pending set (raw samples retained) until a Flush repairs it.
func (db *DB) noteFailure(err error) {
	db.errMu.Lock()
	db.failed++
	if db.firstErr == nil {
		db.firstErr = err
	}
	db.errMu.Unlock()
}

// noteRepair marks one failed block as successfully re-persisted; once no
// failures remain the store resumes normal operation.
func (db *DB) noteRepair() {
	db.errMu.Lock()
	db.failed--
	if db.failed == 0 {
		db.firstErr = nil
	}
	db.errMu.Unlock()
}

func (db *DB) err() error {
	db.errMu.Lock()
	defer db.errMu.Unlock()
	return db.firstErr
}

// readBlockHeader reads just enough of a block file to recover its dense
// sample count, codec ID, and payload offset. Current-format blocks carry
// the versioned codec header; headerless blocks from the pre-codec engine
// are raw CAMEO irregular-series encodings (recognized by their own CAM1
// magic) whose payload starts at offset 0.
func readBlockHeader(path string) (n int, codecID uint8, hdrOff int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	bufLen := codec.MaxHeaderLen
	if series.HeaderLen > bufLen {
		bufLen = series.HeaderLen
	}
	buf := make([]byte, bufLen)
	k, err := io.ReadFull(f, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil // tiny block: the header may be the whole file
	}
	if err != nil {
		return 0, 0, 0, err
	}
	h, off, err := codec.ParseBlockHeader(buf[:k])
	if err == nil {
		return h.N, h.CodecID, off, nil
	}
	if !errors.Is(err, codec.ErrNotBlockFormat) {
		return 0, 0, 0, err
	}
	n, err = series.DecodeHeader(buf[:k])
	if err != nil {
		return 0, 0, 0, err
	}
	if n > codec.MaxBlockSamples {
		// Legacy headers carry their own laxer bound; hold them to the
		// block cap too, or a planted count would inflate the series
		// total and the allocations sized by it.
		return 0, 0, 0, fmt.Errorf("tsdb: legacy block claims %d samples, above the %d-sample cap", n, codec.MaxBlockSamples)
	}
	return n, codec.IDCAMEO, 0, nil
}

// atomicWrite writes via a temp file + fsync + rename + directory fsync,
// so a crash — of the process, the OS, or power — never leaves a
// half-written or empty block behind the name: the data is on stable
// storage before the rename, and the rename itself is persisted before we
// report success. (Open removes any *.tmp leftovers from crashes between
// the write and the rename.)
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
