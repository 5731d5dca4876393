package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	cameo "repro"
)

// runTraced is the run that produces the per-layer metrics. It has two
// halves of --seconds each, on separately set-up stores of the same seed:
// an untraced half, whose operation latencies are the reference for the
// tracing overhead, and a traced half, in which every operation is also
// replayed one layer down — as a direct tsdb call on the mirror store, and
// as codec and core calls on the blocks the operation sealed or read —
// with a span around each call. Nothing inside the program is
// instrumented; counts come from DB.Stats deltas read at the traced
// half's boundaries.
func runTraced(cfg runConfig) (result, error) {
	half := cfg.d / 2
	in := makeInputs(cfg.wl, cfg.seed, half.Seconds())
	ref, err := openEnv(cfg.wl, cfg.seed, cfg.root, in, false)
	if err != nil {
		return result{}, err
	}
	if _, err := phases(ref, half, &measures{}); err != nil {
		ref.close()
		return result{}, err
	}
	ref.close()

	e, err := openEnv(cfg.wl, cfg.seed, cfg.root, in, true)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	e.idx.rescanAll(e.in.names)
	before := e.db.Stats()
	queue := startQueueSampler(e.db, e.lay)
	start := time.Now()
	m := &measures{}
	if _, err := phases(e, half, m); err != nil {
		queue.finish()
		return result{}, err
	}
	wall := time.Since(start)
	queue.finish()
	after := e.db.Stats()
	_, codecBytes, codecSamples := checkStored(e)
	if err := e.tr.writeFile(filepath.Join(cfg.root, fmt.Sprintf("trace-%s-%d.json", cfg.wl.name, cfg.seed))); err != nil {
		return result{}, err
	}

	res := result{Prov: newProvenance(cfg, e, true, m)}
	res.Metrics, res.Notes = layerMetrics(e, ref.rec, before, after, wall, codecBytes, codecSamples)
	res.Attempted = ref.rec.attempted + e.rec.attempted
	res.Failed = ref.rec.failed + e.rec.failed
	res.Reasons = append(append([]string(nil), ref.rec.reasons...), e.rec.reasons...)
	res.Correct = res.Failed == 0
	return res, nil
}

// rescanAll lists every series once, so the first replayed operation of
// each does not mistake the set-up blocks for blocks it sealed.
func (x *blockIndex) rescanAll(names []string) {
	for _, n := range names {
		x.rescan(n)
	}
}

// queueSampler records the largest compression backlog while it runs.
type queueSampler struct {
	stop, done chan struct{}
}

func startQueueSampler(db *cameo.Store, l *layers) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if n := db.Stats().Queued; n > l.queueMax {
				l.mu.Lock()
				l.queueMax = n
				l.mu.Unlock()
			}
			select {
			case <-q.stop:
				return
			case <-t.C:
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() {
	close(q.stop)
	<-q.done
}

// layerMetrics turns the traced half's spans, replays and counter deltas
// into the per-layer metrics. ref holds the untraced half's latencies.
func layerMetrics(e *env, ref *recorder, b, a cameo.StoreTotals, wall time.Duration,
	codecBytes, codecSamples map[string]int64) ([]metric, []string) {
	l := e.lay
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []metric
	var notes []string
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// Attribution per operation type: mean self time of each layer, the
	// unattributed rest, and the traced end-to-end mean they add up to;
	// beside them the replays' uncapped durations and the share of
	// operations whose replays had to be capped to fit their parent.
	sums, replays := map[string]map[string]float64{}, map[string]map[string]float64{}
	totals, counts, capped := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, at := range attributeAll(e.tr.snapshot()) {
		if sums[at.Kind] == nil {
			sums[at.Kind], replays[at.Kind] = map[string]float64{}, map[string]float64{}
		}
		for layer, d := range at.Self {
			sums[at.Kind][layer] += ms(d)
		}
		for layer, d := range at.Replay {
			replays[at.Kind][layer] += ms(d)
		}
		sums[at.Kind]["unattributed"] += ms(at.Unattributed)
		totals[at.Kind] += ms(at.Total)
		counts[at.Kind]++
		if at.Capped {
			capped[at.Kind]++
		}
	}
	var tracedTime, untracedTime float64
	for _, k := range opKinds {
		n := counts[k]
		add("server."+k+"_self_ms", ratio(sums[k][layerServer], n), "ms")
		for _, layer := range replayedLayers(k) {
			add("trace."+k+"."+layer+"_self_ms", ratio(sums[k][layer], n), "ms")
			add("trace."+k+"."+layer+"_replay_ms", ratio(replays[k][layer], n), "ms")
		}
		add("trace.unattributed_ms."+k, ratio(sums[k]["unattributed"], n), "ms")
		add("trace."+k+".e2e_ms", ratio(totals[k], n), "ms")
		add("trace."+k+".capped_share", ratio(capped[k], n), "share")
		notes = append(notes, fmt.Sprintf("identity %s: %d ops, server+%s+unattributed = e2e = %.4f ms by construction; replays capped to fit in %d ops",
			k, int(n), strings.Join(replayedLayers(k), "+"), ratio(totals[k], n), int(capped[k])))
		// Overhead: the traced half's mean recorded latency against the
		// untraced half's, weighted by the traced half's operation counts.
		tr, un := mean(finiteOnly(e.rec.latencies(k))), mean(finiteOnly(ref.latencies(k)))
		if tr > 0 && un > 0 {
			c := float64(e.rec.count(k))
			tracedTime += c * tr
			untracedTime += c * un
		}
	}
	add("trace.overhead_share", ratio(tracedTime, untracedTime)-1, "share")

	reads := float64(e.rec.count(kindQuery) + e.rec.count(kindScan) + e.rec.count(kindBatch))
	aggs := float64(e.rec.count(kindAgg))
	add("server.response_bytes_per_sample", ratio(float64(e.rec.respBytes), float64(e.rec.respSamples)), "B")
	add("server.refused_share", ratio(float64(e.rec.refused), float64(e.rec.attempted)), "share")

	ap50, ap99 := percentile(l.appendUs, 0.5), percentile(l.appendUs, 0.99)
	add("tsdb.append_p50_us", ap50.Value, "us")
	add("tsdb.append_p99_us", ap99.Value, "us")
	notes = append(notes, fmt.Sprintf("tsdb.append_p99_us: n=%d, %d beyond, valid=%v", ap99.N, ap99.Beyond, ap99.Valid))
	add("tsdb.flush_ms", mean(l.flushMs), "ms")
	add("tsdb.queue_max", float64(l.queueMax), "count")
	add("tsdb.cursor_us_per_block", mean(l.cursorUsBlk), "us")
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	add("tsdb.cache_hit_ratio", ratio(hits, hits+misses), "share")
	add("tsdb.cache_waits", float64(a.CacheWaits-b.CacheWaits), "count")
	add("tsdb.range_decodes_per_read", ratio(float64(a.RangeDecodes-b.RangeDecodes), reads), "count")
	add("tsdb.checkpoint_bytes_per_seek", ratio(float64(a.CheckpointBytes-b.CheckpointBytes), float64(a.CheckpointSeeks-b.CheckpointSeeks)), "B")
	add("tsdb.query_cold_p50_us", us(a.QueryCold.P50), "us")
	add("tsdb.query_warm_p50_us", us(a.QueryWarm.P50), "us")
	for _, c := range []string{"cameo", "gorilla"} {
		add("tsdb.decode_p50_us."+c, us(a.DecodeByCodec[c].P50), "us")
	}
	add("tsdb.agg_pushdowns_per_agg", ratio(float64(a.AggPushdowns-b.AggPushdowns), aggs), "count")
	ph, pw := float64(a.PrefetchHits-b.PrefetchHits), float64(a.PrefetchWasted-b.PrefetchWasted)
	add("tsdb.prefetch_hit_ratio", ratio(ph, ph+pw), "share")
	add("tsdb.compacted_blocks", float64(a.CompactedBlocks-b.CompactedBlocks), "count")
	add("tsdb.rollup_samples", float64(a.RollupSamples-b.RollupSamples), "count")

	add("codec.encode_ms_per_block", mean(l.encodeMs), "ms")
	for _, c := range []string{"cameo", "gorilla"} {
		add("codec.bytes_per_sample."+c, ratio(float64(codecBytes[c]), float64(codecSamples[c])), "B")
	}
	add("codec.decode_range_us", mean(l.decodeUs), "us")
	add("codec.range_agg_us", mean(l.rangeAggUs), "us")

	compress := mean(l.compressMs)
	add("core.compress_ms_per_block", compress, "ms")
	add("core.iterations_per_block", mean(l.iterations), "count")
	// Busy share: the CAMEO compression the primary store performed
	// (blocks sealed times the replayed cost per block) over the CPU time
	// the traced half had.
	add("core.busy_share", ratio(float64(l.sealed)*compress, ms(wall)*float64(runtime.GOMAXPROCS(0))), "share")
	add("core.removed_share", mean(l.removed), "share")
	add("core.deviation_max", l.deviationMax, "1")
	add("core.stream_slice_p99_us", percentile(l.sliceUs, 0.99).Value, "us")
	add("acf.hypothetical_ns", mean(l.hypNs), "ns")
	add("metrics.scrape_ms", mean(l.scrapeMs), "ms")
	if e.wl.name == "trickle" {
		// Only trickle streams, merges and runs open loop; elsewhere these
		// would read 0 without having been measured.
		add("tsdb.stream_forced_ratio", ratio(float64(a.StreamForced-b.StreamForced), float64(a.StreamBlocks-b.StreamBlocks)), "share")
		add("codec.merge_ms", mean(l.mergeMs), "ms")
		add("loadgen.late_p99_ms", percentile(l.lateMs, 0.99).Value, "ms")
	}
	notes = append(notes, "trace spans: "+strconv.Itoa(len(e.tr.snapshot())))
	return out, notes
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func finiteOnly(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}
