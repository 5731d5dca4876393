package tsdb

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// shard is one lock domain of the store. Series names are hashed across
// shards so operations on series in different shards proceed concurrently;
// each shard owns its slice of the decoded-block cache, so cache traffic
// never crosses shard boundaries either.
type shard struct {
	mu     sync.RWMutex
	series map[string]*seriesState
	cache  *blockCache // nil when caching is disabled
}

// blockMeta indexes one persisted block.
type blockMeta struct {
	start   int // first sample index
	n       int // samples covered
	path    string
	bytes   int64  // encoded size on disk
	codecID uint8  // codec that wrote the block (from its header)
	hdrOff  int    // payload offset past the block header (0 for legacy blocks)
	gen     uint64 // store-unique revision, part of the cache identity
}

// key is the block's decoded-cache identity. The generation keeps a
// recycled path (compaction rewrite, delete + re-ingest) from aliasing a
// stale cached reconstruction.
func (m blockMeta) key() cacheKey { return cacheKey{path: m.path, gen: m.gen} }

// pendingBlock is a block that has been cut from the tail but whose
// compression has not yet completed. Queries overlapping it wait on done;
// the worker fills recon (the decoded reconstruction) or err before
// closing the channel.
type pendingBlock struct {
	start int
	raw   []float64 // owned copy of the cut samples; nil once durable
	done  chan struct{}

	// Written by the worker under the shard lock before done is closed.
	recon []float64
	err   error
}

// seriesState is the in-memory view of one series.
type seriesState struct {
	blocks     []blockMeta           // durable, sorted by start
	pending    map[int]*pendingBlock // cut blocks still compressing, by start
	tail       []float64             // samples not yet cut into a block
	tailStamps []int                 // start stamps of on-disk tail files
	tailClean  bool                  // the tail file stamped at assigned holds exactly tail
	base       int                   // first retained sample index (older ones trimmed by retention)
	assigned   int                   // samples cut into blocks (durable + pending), counted from 0
	total      int                   // assigned + len(tail)
	flushing   int                   // active Flushes; while > 0, Append defers async cuts
	stream     *streamState          // incremental compression state (Options.Streaming only)
}

func (db *DB) newSeriesState() *seriesState {
	st := &seriesState{pending: make(map[int]*pendingBlock)}
	if db.opt.Streaming {
		st.stream = &streamState{}
	}
	return st
}

// addTailStamp records an on-disk tail file (idempotent: rewriting the
// same stamp reuses the same file).
func (st *seriesState) addTailStamp(start int) {
	for _, s := range st.tailStamps {
		if s == start {
			return
		}
	}
	st.tailStamps = append(st.tailStamps, start)
}

// durableFrontier is the end of the contiguous durable block prefix
// (anchored at the retention base): every sample between base and it
// survives a crash. Out-of-order worker completions can leave durable
// blocks beyond a hole; those don't extend the frontier (recovery
// discards them).
func (st *seriesState) durableFrontier() int {
	f := st.base
	for _, b := range st.blocks {
		if b.start != f {
			break
		}
		f += b.n
	}
	return f
}

// insertBlock adds a durable block, keeping blocks sorted by start (async
// workers may complete out of order).
func (st *seriesState) insertBlock(meta blockMeta) {
	i := sort.Search(len(st.blocks), func(i int) bool { return st.blocks[i].start >= meta.start })
	st.blocks = append(st.blocks, blockMeta{})
	copy(st.blocks[i+1:], st.blocks[i:])
	st.blocks[i] = meta
}

// sliceBlockLocked slices the oldest BlockSize samples off the tail into a
// new pending block (buffer drawn from the DB's recycle pool) and registers
// it in the pending set. The caller holds the shard lock.
func (db *DB) sliceBlockLocked(st *seriesState) *pendingBlock {
	block := db.getBlockBuf()
	copy(block, st.tail)
	st.tail = append(st.tail[:0], st.tail[db.opt.BlockSize:]...)
	pb := &pendingBlock{start: st.assigned, raw: block, done: make(chan struct{})}
	st.assigned += len(block)
	st.tailClean = false
	st.pending[pb.start] = pb
	return pb
}

// cutBlockLocked is sliceBlockLocked plus a worker-pool reservation (so a
// racing Sync counts the block before the lock is released). The caller
// holds the shard lock and must submit the block to the pool after
// releasing it. Streaming cuts use sliceBlockLocked directly: the
// appenders themselves do the compression, and the seal reserves the pool
// only for the final persist step.
func (db *DB) cutBlockLocked(st *seriesState) *pendingBlock {
	pb := db.sliceBlockLocked(st)
	db.pool.reserve()
	return pb
}

// shardFor hashes a series name to its shard (inline FNV-1a: this sits on
// every Append/Query, and hash.Hash32 would allocate per call).
func (db *DB) shardFor(name string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return db.shards[h%uint32(len(db.shards))]
}

// Append adds samples to a series. Completed blocks are cut from the tail
// and handed to the compression worker pool (or, with Workers < 0,
// compressed inline); the append itself only buffers and slices, so ingest
// latency is decoupled from CAMEO's compression cost. With
// Options.Streaming, the append additionally performs a latency-capped
// slice of the in-progress block's compression (see stream.go), replacing
// the block-cut cost spike with a bounded per-append contribution. After
// an async block compression fails, Append refuses further writes until a
// Flush repairs the failed block, so callers find out about the failure
// before it is buried under acknowledged-but-undurable data.
//
// Every Append records its wall time in the DB.Stats latency histogram.
func (db *DB) Append(name string, values ...float64) error {
	start := time.Now()
	err := db.appendSamples(name, values)
	db.appendLatency.ObserveDuration(time.Since(start))
	return err
}

func (db *DB) appendSamples(name string, values []float64) error {
	if err := validateSeriesName(name); err != nil {
		return err
	}
	if err := db.err(); err != nil {
		return fmt.Errorf("tsdb: a block compression failed (Flush retries it): %w", err)
	}
	sh := db.shardFor(name)
	sh.mu.Lock()
	st := sh.series[name]
	if st == nil {
		if err := os.MkdirAll(db.seriesDir(name), 0o755); err != nil {
			sh.mu.Unlock()
			return err
		}
		st = db.newSeriesState()
		sh.series[name] = st
	}
	st.tail = append(st.tail, values...)
	st.total += len(values)
	st.tailClean = false
	if st.stream != nil {
		// Streaming mode: cuts and compression happen in streamDrain, off
		// the shard lock, behind the per-series stream token. Skip the
		// drain when there is provably nothing to do.
		needDrain := st.stream.busy() ||
			(len(st.tail) >= db.opt.BlockSize && st.flushing == 0)
		sh.mu.Unlock()
		if needDrain {
			db.streamDrain(sh, name, st, len(values))
		}
		return nil
	}
	var cut []*pendingBlock
	for len(st.tail) >= db.opt.BlockSize {
		if db.pool != nil && st.flushing > 0 {
			// A Flush is stamping this series. Cutting now would add a
			// pending block mid-flush and make its wait-for-in-flight loop
			// chase a moving target (an unbounded wait under sustained
			// ingest), so defer the cut: the flush persists the whole tail
			// itself, and any remainder is cut by the next Append.
			break
		}
		if db.pool == nil {
			// Synchronous mode: compress and persist under the shard lock,
			// and only trim the tail once the block is durable — a write
			// error leaves the samples buffered, and a later Append or
			// Flush re-attempts the cut. (Callers must not re-send the
			// failed values; they are still in the tail.)
			meta, recon, err := db.buildBlock(name, st.assigned, st.tail[:db.opt.BlockSize])
			if err != nil {
				sh.mu.Unlock()
				return err
			}
			st.insertBlock(meta)
			st.assigned += meta.n
			st.tail = append(st.tail[:0], st.tail[db.opt.BlockSize:]...)
			st.tailClean = false
			sh.cache.put(meta.key(), recon)
			continue
		}
		cut = append(cut, db.cutBlockLocked(st))
	}
	sh.mu.Unlock()
	// Submit outside the lock: a full queue applies backpressure to this
	// appender without blocking the whole shard.
	for _, pb := range cut {
		db.pool.submit(compressJob{name: name, sh: sh, st: st, pb: pb})
	}
	return nil
}
