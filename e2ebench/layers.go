package main

import (
	"errors"
	"io/fs"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	cameo "repro"
	"repro/internal/acf"
	"repro/internal/codec"
	"repro/internal/core"
)

// blk is one block file of a store as read from its directory: the
// sample range it covers and its codec.
type blk struct {
	start, n int
	codecID  uint8
	size     int64
	path     string
}

func (b blk) end() int { return b.start + b.n }

// seriesDir is where a store keeps one series' files (its name
// path-escaped under the store root).
func seriesDir(root, name string) string { return filepath.Join(root, url.PathEscape(name)) }

// listBlocks reads a series directory and returns its block files in start
// order. known maps a block's path to what the previous listing found;
// unchanged files (same size) are not re-read. Files that vanish while
// listing (compaction and retention delete blocks) are skipped.
func listBlocks(dir string, known map[string]blk) ([]blk, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []blk
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".blk") {
			continue
		}
		start, err := strconv.Atoi(strings.TrimSuffix(name, ".blk"))
		if err != nil {
			continue
		}
		path := filepath.Join(dir, name)
		info, err := e.Info()
		if err != nil {
			continue
		}
		if k, ok := known[path]; ok && k.size == info.Size() {
			out = append(out, k)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		h, _, err := codec.ParseBlockHeader(data)
		if err != nil {
			continue
		}
		out = append(out, blk{start: start, n: h.N, codecID: h.CodecID, size: int64(len(data)), path: path})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

// blockIndex follows the block files of the mirror store, so replays know
// which blocks an operation sealed or read.
type blockIndex struct {
	root   string
	mu     sync.Mutex
	blocks map[string][]blk // series -> blocks, start order
}

func newBlockIndex(root string) *blockIndex {
	return &blockIndex{root: root, blocks: map[string][]blk{}}
}

// rescan re-lists one series and returns the blocks that are new or whose
// content changed since the last listing.
func (x *blockIndex) rescan(name string) []blk {
	x.mu.Lock()
	prev := x.blocks[name]
	x.mu.Unlock()
	known := make(map[string]blk, len(prev))
	for _, b := range prev {
		known[b.path] = b
	}
	cur, err := listBlocks(seriesDir(x.root, name), known)
	if err != nil {
		return nil
	}
	var fresh []blk
	for _, b := range cur {
		if k, ok := known[b.path]; !ok || k != b {
			fresh = append(fresh, b)
		}
	}
	x.mu.Lock()
	x.blocks[name] = cur
	x.mu.Unlock()
	return fresh
}

// overlapping returns the blocks of a series that intersect [from, to).
func (x *blockIndex) overlapping(name string, from, to int) []blk {
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []blk
	for _, b := range x.blocks[name] {
		if b.start < to && b.end() > from {
			out = append(out, b)
		}
	}
	return out
}

// layers collects the per-layer measurements of a traced run.
type layers struct {
	mu sync.Mutex

	appendUs     []float64 // direct Append on the mirror, per write
	cursorUsBlk  []float64 // direct cursor drain per block touched, per raw read
	encodeMs     []float64 // codec.EncodeBlockRecon per sealed block
	compressMs   []float64 // core.Compressor.Compress per sealed CAMEO block
	iterations   []float64 // core Result.Iterations per block
	removed      []float64 // core Result.Removed / block length
	deviationMax float64   // largest core Result.Deviation
	sliceUs      []float64 // StreamEngine.Advance slices
	hypNs        []float64 // DirectTracker.Hypothetical, ns per call, per block
	decodeUs     []float64 // codec range decode per block read
	rangeAggUs   []float64 // codec window aggregates per block read
	mergeMs      []float64 // codec.MergeBlocks per compaction group
	flushMs      []float64 // primary-store Flush
	scrapeMs     []float64 // GET /metrics
	lateMs       []float64 // open-loop lateness
	queueMax     int
	sealed       int // CAMEO blocks replayed
}

func newLayers() *layers { return &layers{} }

func (l *layers) add(dst *[]float64, v float64) {
	l.mu.Lock()
	*dst = append(*dst, v)
	l.mu.Unlock()
}

// replayer performs the direct and codec/core replays of one client's
// operations. Each client owns one, so the core engines it holds are
// never shared.
type replayer struct {
	e    *env
	idx  *blockIndex
	comp *core.Compressor
	cam  codec.Codec
	rng  *rand.Rand
}

func newReplayer(e *env, idx *blockIndex, seed int64) (*replayer, error) {
	comp, err := core.NewCompressor(core.Options(e.opts.Compression))
	if err != nil {
		return nil, err
	}
	return &replayer{e: e, idx: idx, comp: comp, cam: codec.NewCAMEO(core.Options(e.opts.Compression)), rng: rand.New(rand.NewSource(seed))}, nil
}

// timed runs f as a span of layer name under parent and returns its ID.
func (r *replayer) timed(op, parent int64, name string, f func()) (int64, time.Duration) {
	id := r.e.tr.newID()
	start := time.Now()
	f()
	end := time.Now()
	r.e.tr.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id, end.Sub(start)
}

// sealed replays the codec and core work for blocks that appeared in the
// mirror since the series was last listed: the block encode under its
// codec, with the CAMEO compression it contains as a core span beneath
// it, plus the per-call ACF cost and the streaming slices of the same
// block. Compaction output never arrives here: the merge replay lists the
// series right after each Maintain pass.
func (r *replayer) sealed(op, parent int64, name string, fresh []blk) {
	raw := r.e.in.data[name]
	for _, b := range fresh {
		if b.end() > len(raw) {
			continue
		}
		xs := raw[b.start:b.end()]
		c, err := codec.ByID(b.codecID)
		if err != nil {
			continue
		}
		isCAMEO := b.codecID == codec.IDCAMEO
		if isCAMEO {
			c = r.cam
		}
		var encErr error
		codecID, d := r.timed(op, parent, layerCodec, func() { _, _, _, encErr = codec.EncodeBlockRecon(c, xs) })
		if encErr != nil {
			continue
		}
		r.e.lay.add(&r.e.lay.encodeMs, ms(d))
		if !isCAMEO {
			continue
		}
		var res *core.Result
		_, cd := r.timed(op, codecID, layerCore, func() { res, _ = r.comp.Compress(xs) })
		l := r.e.lay
		l.mu.Lock()
		l.compressMs = append(l.compressMs, ms(cd))
		l.sealed++
		if res != nil {
			l.iterations = append(l.iterations, float64(res.Iterations))
			l.removed = append(l.removed, float64(res.Removed)/float64(len(xs)))
			l.deviationMax = max(l.deviationMax, res.Deviation)
		}
		replaySlices := l.sealed%4 == 1
		l.mu.Unlock()
		r.hypothetical(xs)
		if replaySlices {
			r.slices(xs)
		}
	}
}

// hypothetical times DirectTracker.Hypothetical on the block: the impact
// evaluation CAMEO's inner loop runs for every candidate removal.
func (r *replayer) hypothetical(xs []float64) {
	lags := r.e.opts.Compression.Lags
	tr := acf.NewDirectTracker(xs, lags)
	sc := tr.NewScratch()
	deltas := make([]float64, 8)
	const calls = 256
	starts := make([]int, calls)
	for i := range starts {
		starts[i] = r.rng.Intn(len(xs) - len(deltas))
	}
	for i := range deltas {
		deltas[i] = r.rng.NormFloat64() * 0.01
	}
	t0 := time.Now()
	for _, s := range starts {
		tr.Hypothetical(xs, s, deltas, sc)
	}
	r.e.lay.add(&r.e.lay.hypNs, float64(time.Since(t0).Nanoseconds())/calls)
}

// streamStepUnits is the largest work slice the store's streaming ingest
// hands StreamEngine.Advance in one call.
const streamStepUnits = 512

// slices replays the block through core.StreamEngine at the store's step
// size and records each Advance call's wall time.
func (r *replayer) slices(xs []float64) {
	se, err := core.NewStreamEngine(core.Options(r.e.opts.Compression))
	if err != nil {
		return
	}
	defer se.Close()
	if se.Begin(xs) != nil {
		return
	}
	var us []float64
	for {
		t0 := time.Now()
		_, done := se.Advance(streamStepUnits)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if done {
			break
		}
	}
	l := r.e.lay
	l.mu.Lock()
	l.sliceUs = append(l.sliceUs, us...)
	l.mu.Unlock()
}

// direct runs a read's direct call on the mirror as a tsdb span and
// returns how many blocks it decoded: the deltas of the mirror's cache
// misses, range decodes and aggregate pushdowns. Blocks it served from the
// cache cost no codec work. The clients' read replays hold replayMu, so
// the deltas are this call's alone.
func (r *replayer) direct(op, parent int64, f func()) (decoded int, id int64, d time.Duration) {
	b := r.e.mirror.Stats()
	id, d = r.timed(op, parent, layerTSDB, f)
	a := r.e.mirror.Stats()
	return int(a.CacheMisses - b.CacheMisses + a.RangeDecodes - b.RangeDecodes + a.AggPushdowns - b.AggPushdowns), id, d
}

// read replays a raw read of [from, to) of the named series one layer
// down: the direct call (done, when set, gets its duration), then a range
// decode of the mirror blocks the read overlaps, series by series in start
// order, as many as the direct call decoded. Samples still in memory
// (pending or tail) have no block to replay.
func (r *replayer) read(op, parent int64, names []string, from, to int, call func(), done func(time.Duration)) {
	r.e.replayMu.Lock()
	defer r.e.replayMu.Unlock()
	decoded, tid, d := r.direct(op, parent, call)
	if done != nil {
		done(d)
	}
	for _, name := range names {
		for _, b := range r.idx.overlapping(name, from, to) {
			if decoded == 0 {
				return
			}
			decoded--
			data, err := os.ReadFile(b.path)
			if err != nil {
				continue
			}
			lo, hi := max(from, b.start)-b.start, min(to, b.end())-b.start
			_, d := r.timed(op, tid, layerCodec, func() { cameo.DecodeBlockRange(data, lo, hi) })
			r.e.lay.add(&r.e.lay.decodeUs, float64(d.Nanoseconds())/1e3)
		}
	}
}

// agg replays an aggregate read one layer down: the direct call, then the
// window aggregates of the blocks the read overlaps, as many as the direct
// call decoded, taken from the rollup series when the query is aligned to
// a tier the store keeps (that is where the store answers it from), else
// from the raw blocks.
func (r *replayer) agg(op, parent int64, name string, from, to, step int, call func()) {
	r.e.replayMu.Lock()
	defer r.e.replayMu.Unlock()
	decoded, tid, _ := r.direct(op, parent, call)
	src, lo, hi, w := name, from, to, step
	for _, rs := range r.e.opts.Rollups {
		if rs.Step > 0 && step%rs.Step == 0 && from%rs.Step == 0 {
			src = name + "@mean:" + strconv.Itoa(rs.Step)
			lo, hi, w = from/rs.Step, (to+rs.Step-1)/rs.Step, step/rs.Step
			r.idx.rescan(src)
		}
	}
	for _, b := range r.idx.overlapping(src, lo, hi) {
		if decoded == 0 {
			return
		}
		decoded--
		data, err := os.ReadFile(b.path)
		if err != nil {
			continue
		}
		blo, bhi := max(lo, b.start)-b.start, min(hi, b.end())-b.start
		_, d := r.timed(op, tid, layerCodec, func() { cameo.DecodeBlockWindowAggs(data, blo, bhi, w) })
		r.e.lay.add(&r.e.lay.rangeAggUs, float64(d.Nanoseconds())/1e3)
	}
}

// compactionSnapshot reads the payloads of every mirror block that
// compaction may merge (those under the fill threshold), keyed by path and
// start, before a Maintain pass.
type compactionSnapshot map[string]map[int]blk

func snapshotCandidates(idx *blockIndex, names []string, limit int) (compactionSnapshot, map[string][]byte) {
	snap := compactionSnapshot{}
	payloads := map[string][]byte{}
	for _, name := range names {
		idx.rescan(name)
		for _, b := range idx.overlapping(name, 0, 1<<62) {
			if b.n >= limit {
				continue
			}
			data, err := os.ReadFile(b.path)
			if err != nil {
				continue
			}
			if snap[name] == nil {
				snap[name] = map[int]blk{}
			}
			snap[name][b.start] = b
			payloads[name+"/"+strconv.Itoa(b.start)] = data
		}
	}
	return snap, payloads
}

// replayMerges finds, after a Maintain pass, the blocks that now cover
// several of the snapshotted candidates and replays codec.MergeBlocks on
// those groups.
func replayMerges(l *layers, idx *blockIndex, snap compactionSnapshot, payloads map[string][]byte) {
	for name, cands := range snap {
		idx.rescan(name)
		for _, nb := range idx.overlapping(name, 0, 1<<62) {
			var group []blk
			for _, c := range cands {
				if c.start >= nb.start && c.end() <= nb.end() {
					group = append(group, c)
				}
			}
			if len(group) < 2 {
				continue
			}
			sort.Slice(group, func(i, j int) bool { return group[i].start < group[j].start })
			var pays [][]byte
			var ns []int
			for _, g := range group {
				_, _, p, err := codec.SplitBlock(payloads[name+"/"+strconv.Itoa(g.start)])
				if err != nil {
					pays = nil
					break
				}
				pays = append(pays, p)
				ns = append(ns, g.n)
			}
			c, err := codec.ByID(group[0].codecID)
			if pays == nil || err != nil {
				continue
			}
			t0 := time.Now()
			if _, err := codec.MergeBlocks(c, pays, ns); err == nil {
				l.add(&l.mergeMs, ms(time.Since(t0)))
			}
		}
	}
}
