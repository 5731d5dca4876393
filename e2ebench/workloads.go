package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	cameo "repro"
)

// workload is one seeded traffic mix: how its store is set up, the load
// its measured phase drives, and the probes that measure the operation
// types its load does not include (every workload reports every
// end-to-end metric; see README.md for which come from probes).
type workload struct {
	name string
	// inputs generates the run's input values, sized for a measured phase
	// of the given length. It runs once per run, before set-up is timed.
	inputs func(in *inputs, seed int64, seconds float64)
	setup  func(e *env) error
	main   func(e *env, d time.Duration, m *measures) error
	probe  func(e *env, m *measures) error
	// rate is the open-loop write rate in samples per second (0 for
	// closed-loop workloads).
	rate float64
}

// measures collects the end-to-end figures a run produces besides the
// per-operation latencies the recorder keeps.
type measures struct {
	ingestPerS     float64
	readsPerS      float64
	maintainMs     []float64
	bytesPerSample float64
	heap           pctile   // peak live heap of the measured phase in MiB, less the benchmark's own
	fromProbe      []string // end-to-end metrics this workload takes from its probes
}

// cameodOptions are the store settings cmd/cameod runs with by default:
// the CAMEO codec preserving 24 ACF lags within 0.01, 4096-sample blocks,
// batch-async compression on a GOMAXPROCS-wide pool, and readahead 2.
func cameodOptions() cameo.StoreOptions {
	return cameo.StoreOptions{
		Compression: cameo.Options{Lags: 24, Epsilon: 0.01},
		BlockSize:   4096,
		ReadAhead:   2,
	}
}

const (
	writeBatch   = 512      // samples per ingest / probe write
	readWindow   = 512      // samples per raw read
	probeOps     = 3000     // operations per probed type: 30 lie beyond the p99
	readProbeOps = 5000     // iterations of a read probe
	probeSpan    = 4096     // samples per probed aggregate read
	scanSpan     = 2 * 4096 // samples per scan: two blocks, so readahead runs
	batchSeries  = 8        // series per batch read
	probeScrapes = 20
)

var workloads = []*workload{ingestWorkload(), dashboardWorkload(), trickleWorkload()}

// makeInputs generates a workload's inputs for one run.
func makeInputs(wl *workload, seed int64, seconds float64) *inputs {
	in := newInputs()
	wl.inputs(in, seed, seconds)
	return in
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- ingest -----------------------------------------------------------

const (
	ingestClients   = 2
	ingestSeriesPer = 4
	// ingestBaseRate sizes one round of generated inputs: about 1.2 times
	// the total rate of the 2-vCPU reference host (~34k samples/s).
	ingestBaseRate = 40000
	// ingestRounds is how many series reuse each array of values in turn:
	// when a client has written all of a series' values it goes on with a
	// new series carrying the same values, so a store up to ingestRounds
	// times faster than ingestBaseRate never runs out of input.
	ingestRounds = 8
)

func ingestName(client, slot, round int) string {
	return fmt.Sprintf("ingest.c%d.s%d.r%d", client, slot, round)
}

// ingestWorkload is the write-path workload: CAMEO compression (core and
// acf) is almost all of the CPU and the read path is idle, so a hot-path
// gain shows here and nowhere else.
func ingestWorkload() *workload {
	return &workload{
		name: "ingest",
		inputs: func(in *inputs, seed int64, seconds float64) {
			n := int(seconds*ingestBaseRate)/(ingestClients*ingestSeriesPer) + 2*4096
			for c := 0; c < ingestClients; c++ {
				for j := 0; j < ingestSeriesPer; j++ {
					in.add(ingestName(c, j, 0), c*ingestSeriesPer+j, n, seed)
				}
			}
			for r := 1; r < ingestRounds; r++ {
				for c := 0; c < ingestClients; c++ {
					for j := 0; j < ingestSeriesPer; j++ {
						in.alias(ingestName(c, j, r), ingestName(c, j, 0))
					}
				}
			}
		},
		setup: func(e *env) error { return e.open(cameodOptions()) },
		main: func(e *env, d time.Duration, m *measures) error {
			workers, err := newWorkers(e, ingestClients)
			if err != nil {
				return err
			}
			round := make([][ingestSeriesPer]int, ingestClients)
			start := time.Now()
			closedLoop(ingestClients, start, d, func(c, i int) {
				w, slot := workers[c], i%ingestSeriesPer
				name := ingestName(c, slot, round[c][slot])
				pos := int(e.in.written[name].Load())
				if pos+writeBatch > len(e.in.data[name]) {
					if round[c][slot]++; round[c][slot] == ingestRounds {
						return // every round of this slot is used up; the others go on
					}
					name, pos = ingestName(c, slot, round[c][slot]), 0
				}
				w.record(kindWrite, w.write(name, e.in.data[name][pos:pos+writeBatch]))
			})
			if err := timedFlush(e); err != nil {
				return err
			}
			m.ingestPerS = float64(e.in.totalWritten()) / time.Since(start).Seconds()
			return nil
		},
		probe: func(e *env, m *measures) error {
			m.fromProbe = []string{"query_*", "scan_*", "agg_*", "batch_*", "reads_per_s", "maintain_ms"}
			// Nothing is left to compact or roll up, so this is the cost of
			// an idle lifecycle pass over the ingested store.
			if err := maintainPasses(e, m, 21); err != nil {
				return err
			}
			return readProbes(e, m, e.in.atLeast(scanSpan), 256)
		},
	}
}

// ---- dashboard --------------------------------------------------------

const (
	dashSeries      = 8        // CAMEO series, and as many Gorilla series
	dashLength      = scanSpan // samples per series: two blocks each, so a scan reads a whole series
	dashShards      = 4
	dashCacheBlocks = 8 // a quarter of the 32 raw blocks
	dashTier        = 256
	dashAggSpan     = 2048 // samples per aggregate read
	dashProbeSeries = 2    // series written per probe round
	dashProbeRounds = 20   // probe rounds, each to new series with the same values
	// dashRecentShare of the windows lie in the newest block of their
	// series, the rest anywhere in it. Facebook's Gorilla paper
	// (Pelkonen et al., VLDB 2015, section 2) reports that at least 85% of
	// the queries to its monitoring store read data from the past 26
	// hours; the newest block stands for that recent data.
	dashRecentShare = 0.85
)

func dashboardOptions() cameo.StoreOptions {
	o := cameodOptions()
	o.Shards = dashShards
	o.CacheBlocks = dashCacheBlocks
	o.Rollups = []cameo.RollupSpec{{Step: dashTier}}
	return o
}

// dashboardWorkload is the read-path workload: a read-only mix over CAMEO,
// Gorilla and rollup data four times the cache, so cache hits and cold
// decodes, range and aggregate pushdown, checkpoint seeks, readahead and
// fan-out all run while core stays idle. The four request types have
// equal shares; no traffic measurement gives them weights.
func dashboardWorkload() *workload {
	return &workload{
		name: "dashboard",
		inputs: func(in *inputs, seed int64, _ float64) {
			for i := 0; i < dashSeries; i++ {
				in.add(fmt.Sprintf("dash.cameo%d", i), i, dashLength, seed)
			}
			for i := 0; i < dashSeries; i++ {
				in.add(fmt.Sprintf("dash.gorilla%d", i), dashSeries+i, dashLength, seed)
			}
			for i := 0; i < dashProbeSeries; i++ {
				in.add(dashProbeName(i, 0), 2*dashSeries+i, probeRoundWrites*writeBatch/dashProbeSeries, seed)
			}
			for r := 1; r < dashProbeRounds; r++ {
				for i := 0; i < dashProbeSeries; i++ {
					in.alias(dashProbeName(i, r), dashProbeName(i, 0))
				}
			}
		},
		setup: func(e *env) error {
			if err := e.open(dashboardOptions()); err != nil {
				return err
			}
			if err := prefill(e, e.in.names[:dashSeries], dashLength, 4096); err != nil {
				return err
			}
			// Series written after reopening are stored with Gorilla; the
			// CAMEO blocks stay readable through their headers.
			o := dashboardOptions()
			o.Codec = cameo.CodecGorilla()
			if err := e.reopen(o); err != nil {
				return err
			}
			if err := prefill(e, e.in.names[dashSeries:2*dashSeries], dashLength, 4096); err != nil {
				return err
			}
			return e.stores(func(db *cameo.Store) error { return db.Maintain() })
		},
		main: func(e *env, d time.Duration, m *measures) error {
			raw := e.in.names[:2*dashSeries]
			workers, err := newWorkers(e, 2)
			if err != nil {
				return err
			}
			pop := newZipf(len(raw))
			perWindow := closedLoop(len(workers), time.Now(), d, func(c, _ int) {
				w := workers[c]
				name := raw[pop.draw(w.rng)]
				switch w.rng.Intn(4) {
				case 0: // one 512-sample window
					from := recentFrom(w.rng, dashLength, readWindow, 1)
					w.record(kindQuery, w.query(kindQuery, name, from, from+readWindow))
				case 1: // whole-series scan: several blocks, readahead
					w.record(kindScan, w.query(kindScan, name, 0, scanSpan))
				case 2: // aggregate: half tier-aligned (served by the rollup), half pushed into the blocks
					if w.rng.Intn(2) == 0 {
						from := recentFrom(w.rng, dashLength, dashAggSpan, dashTier)
						w.record(kindAgg, w.agg(name, from, from+dashAggSpan, dashTier))
					} else {
						from := recentFrom(w.rng, dashLength, dashAggSpan, 1)
						w.record(kindAgg, w.agg(name, from, from+dashAggSpan, 100))
					}
				default: // 8-series batch
					names := pop.distinct(w.rng, raw, batchSeries)
					from := recentFrom(w.rng, dashLength, readWindow, 1)
					w.record(kindBatch, w.batch(names, from, from+readWindow))
				}
			})
			// Reads per second is the median over the windows of the phase.
			rates := make([]float64, len(perWindow))
			for i, n := range perWindow {
				rates[i] = float64(n) / (d.Seconds() / rateWindows)
			}
			m.readsPerS = median(rates)
			return nil
		},
		probe: func(e *env, m *measures) error {
			m.fromProbe = []string{"write_*", "ingest_samples_per_s", "maintain_ms"}
			w, err := newWorker(e, 100)
			if err != nil {
				return err
			}
			// Writes in rounds, each to two new series (stored with Gorilla,
			// the codec the store was reopened with) and filling whole
			// blocks. A round is timed through Sync, which waits for the
			// compression of every block it cut, so its rate counts only
			// stored samples. The Flush and the Maintain pass that rolls
			// the new samples up follow untimed: Flush rewrites the tail
			// file of every rollup series, and each round adds eight of
			// them, so timing it would make the rate fall round by round
			// and follow the disk's fsync latency. The ingest rate is the
			// median over the rounds.
			var rates []float64
			for r := 0; r < dashProbeRounds; r++ {
				t0 := time.Now()
				for i := 0; i < probeRoundWrites; i++ {
					name := dashProbeName(i%dashProbeSeries, r)
					pos := int(e.in.written[name].Load())
					w.record(kindWrite, w.write(name, e.in.data[name][pos:pos+writeBatch]))
				}
				if err := e.db.Sync(); err != nil {
					return err
				}
				rates = append(rates, float64(probeRoundWrites*writeBatch)/time.Since(t0).Seconds())
				if err := timedFlush(e); err != nil {
					return err
				}
				if err := maintainPasses(e, m, 1); err != nil {
					return err
				}
			}
			m.ingestPerS = median(rates)
			scrapes(w)
			return nil
		},
	}
}

// probeRoundWrites is the number of writes in one dashboard probe round:
// 288 writes of 512 samples fill 18 blocks of each of its two series.
const probeRoundWrites = 288

func dashProbeName(i, round int) string { return fmt.Sprintf("dash.probe%d.r%d", i, round) }

// recentFrom picks the start of a span-sample window of a length-sample
// series, a multiple of align: with probability dashRecentShare inside the
// series' newest block, otherwise anywhere in the series.
func recentFrom(rng *rand.Rand, length, span, align int) int {
	lo := 0
	if rng.Float64() < dashRecentShare {
		lo = length - 4096
	}
	return lo + align*rng.Intn((length-span-lo)/align+1)
}

// zipf draws item k of n with probability proportional to 1/(k+1): Zipf's
// law with exponent 1. The exponent is the law's plain form, not fitted to
// any traffic.
type zipf struct{ cum []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for k := range z.cum {
		total += 1 / float64(k+1)
		z.cum[k] = total
	}
	for k := range z.cum {
		z.cum[k] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cum, rng.Float64()), len(z.cum)-1)
}

// distinct draws n distinct names by the Zipf popularity.
func (z *zipf) distinct(rng *rand.Rand, names []string, n int) []string {
	seen := map[int]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		k := z.draw(rng)
		if !seen[k] {
			seen[k] = true
			out = append(out, names[k])
		}
	}
	return out
}

// ---- trickle ----------------------------------------------------------

const (
	trickleSeries     = 8
	trickleHot        = 2
	trickleBlock      = 1024
	trickleBatch      = 16
	trickleWritesPerS = 200
	trickleFlushEvery = 300 // writes
	trickleMaintEvery = 600 // writes
	trickleHistory    = 2 * trickleBlock
	trickleTier       = 64
	trickleScrapeOps  = 10 // reader iterations per /metrics scrape
)

func trickleOptions() cameo.StoreOptions {
	o := cameodOptions()
	o.BlockSize = trickleBlock
	o.Streaming = true
	o.Rollups = []cameo.RollupSpec{{Step: trickleTier}}
	return o
}

// trickleSeriesFor is the writer's weighted round robin: every third
// write goes to each of the two hot series, which fill whole blocks
// between flushes and so exercise streaming cuts; the rest rotate over the
// cold series, whose tails each Flush cuts into short blocks that
// compaction later merges.
func trickleSeriesFor(i int) int {
	if k := i % 3; k < trickleHot {
		return k
	}
	return trickleHot + (i/3)%(trickleSeries-trickleHot)
}

// trickleWorkload writes and reads the same series at once: open-loop
// streaming writes with Flush and Maintain by write count, so streaming
// slices, Flush-cut short blocks, compaction merges and reads of pending,
// tail and cached data all run.
func trickleWorkload() *workload {
	return &workload{
		name: "trickle",
		rate: trickleWritesPerS * trickleBatch,
		inputs: func(in *inputs, seed int64, seconds float64) {
			// Room for a hot series' third of the writes, with slack.
			n := trickleHistory + int(seconds*trickleWritesPerS*trickleBatch/3) + 4*trickleBlock
			for i := 0; i < trickleSeries; i++ {
				in.add(fmt.Sprintf("trickle.s%d", i), i, n, seed)
			}
		},
		setup: func(e *env) error {
			if err := e.open(trickleOptions()); err != nil {
				return err
			}
			if err := prefill(e, e.in.names, trickleHistory, trickleBlock); err != nil {
				return err
			}
			return e.stores(func(db *cameo.Store) error { return db.Maintain() })
		},
		main: func(e *env, d time.Duration, m *measures) error {
			workers, err := newWorkers(e, 2)
			if err != nil {
				return err
			}
			writer, reader := workers[0], workers[1]
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					name := e.in.names[reader.rng.Intn(trickleSeries)]
					to := int(e.in.written[name].Load())
					reader.record(kindQuery, reader.query(kindQuery, name, to-readWindow, to))
					ato := to / trickleTier * trickleTier
					reader.record(kindAgg, reader.agg(name, ato-32*trickleTier, ato, trickleTier))
					if i%trickleScrapeOps == trickleScrapeOps-1 {
						reader.scrape()
					}
				}
			}()
			start := time.Now()
			n := int(d.Seconds() * trickleWritesPerS)
			status := make([]int, n)
			var lifeErr error
			samples := openLoop(n, time.Second/trickleWritesPerS, start, time.Now, time.Sleep, func(i int) error {
				name := e.in.names[trickleSeriesFor(i)]
				pos := int(e.in.written[name].Load())
				r := writer.write(name, e.in.data[name][pos:pos+trickleBatch])
				status[i] = r.status
				if r.err != nil {
					return r.err
				}
				if (i+1)%trickleFlushEvery == 0 {
					if err := timedFlush(e); err != nil {
						lifeErr = err
					}
				}
				if (i+1)%trickleMaintEvery == 0 {
					var snap compactionSnapshot
					var payloads map[string][]byte
					if e.mirror != nil {
						snap, payloads = snapshotCandidates(e.idx, e.in.names, trickleBlock/2)
					}
					t0 := time.Now()
					if err := e.db.Maintain(); err != nil {
						lifeErr = err
					}
					m.maintainMs = append(m.maintainMs, ms(time.Since(t0)))
					if e.mirror != nil {
						e.mirror.Maintain()
						replayMerges(e.lay, e.idx, snap, payloads)
					}
				}
				return nil
			})
			close(done)
			wg.Wait()
			for i, s := range samples {
				if e.lay != nil {
					e.lay.add(&e.lay.lateMs, ms(s.Late))
				}
				if s.Err != nil {
					e.rec.fail(kindWrite, status[i], "write: "+s.Err.Error())
					continue
				}
				e.rec.ok(kindWrite, s.Latency)
			}
			if err := timedFlush(e); err != nil {
				return err
			}
			elapsed := time.Since(start).Seconds()
			m.ingestPerS = float64(len(samples)*trickleBatch) / elapsed
			m.readsPerS = float64(e.rec.count(kindQuery)+e.rec.count(kindAgg)) / elapsed
			return lifeErr
		},
		probe: func(e *env, m *measures) error {
			m.fromProbe = []string{"scan_*", "batch_*"}
			w, err := newWorker(e, 100)
			if err != nil {
				return err
			}
			for i := 0; i < probeOps; i++ {
				names := append([]string(nil), e.in.names...)
				w.rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
				to := int(e.in.written[names[0]].Load())
				for _, n := range names[:batchSeries] {
					to = min(to, int(e.in.written[n].Load()))
				}
				w.record(kindBatch, w.batch(names[:batchSeries], to-readWindow, to))
				if i%3 == 0 { // the newest scanSpan samples of a series, or all of a shorter one
					to := int(e.in.written[names[0]].Load())
					w.record(kindScan, w.query(kindScan, names[0], max(0, to-scanSpan), to))
				}
			}
			scrapes(w)
			return nil
		},
	}
}

// ---- shared phases ----------------------------------------------------

func newWorkers(e *env, n int) ([]*worker, error) {
	out := make([]*worker, n)
	for i := range out {
		w, err := newWorker(e, i)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// prefill appends the first n values of each series in chunk-sized
// pieces during set-up (direct calls, both stores), then flushes.
func prefill(e *env, names []string, n, chunk int) error {
	return e.stores(func(db *cameo.Store) error {
		for _, name := range names {
			xs := e.in.data[name][:n]
			for off := 0; off < len(xs); off += chunk {
				if err := db.Append(name, xs[off:min(off+chunk, len(xs))]...); err != nil {
					return err
				}
			}
			e.in.written[name].Store(int64(len(xs)))
		}
		return db.Flush()
	})
}

// timedFlush flushes the stores, timing the primary's Flush.
func timedFlush(e *env) error {
	t0 := time.Now()
	if err := e.db.Flush(); err != nil {
		return err
	}
	if e.lay != nil {
		e.lay.add(&e.lay.flushMs, ms(time.Since(t0)))
	}
	if e.mirror != nil {
		return e.mirror.Flush()
	}
	return nil
}

// maintainPasses runs n Maintain passes on the primary store, timing each
// (the mirror runs the same passes untimed).
func maintainPasses(e *env, m *measures, n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := e.db.Maintain(); err != nil {
			return err
		}
		m.maintainMs = append(m.maintainMs, ms(time.Since(t0)))
		if e.mirror != nil {
			if err := e.mirror.Maintain(); err != nil {
				return err
			}
		}
	}
	return nil
}

// readProbes measures the read operation types on a store whose load did
// not include them, one client, over random windows of the given series:
// readProbeOps raw reads, aggregates and batch reads, and a third as many
// scans (a scan costs about three reads).
func readProbes(e *env, m *measures, names []string, tier int) error {
	w, err := newWorker(e, 100)
	if err != nil {
		return err
	}
	lengths := make([]int, len(names))
	shortest := -1
	for i, n := range names {
		lengths[i] = int(e.in.written[n].Load())
		if shortest < 0 || lengths[i] < shortest {
			shortest = lengths[i]
		}
	}
	if len(names) == 0 || shortest < scanSpan {
		return fmt.Errorf("read probes need %d samples per series, shortest has %d", scanSpan, shortest)
	}
	// The types interleave, so each one's samples spread over the whole
	// probe rather than one short stretch of it. Reads per second is the
	// median over windows of the probe.
	var rates []float64
	start, done := time.Now(), 0
	for i := 0; i < readProbeOps; i++ {
		k := w.rng.Intn(len(names))
		from := w.rng.Intn(lengths[k] - readWindow)
		w.record(kindQuery, w.query(kindQuery, names[k], from, from+readWindow))

		k = w.rng.Intn(len(names))
		from = tier * w.rng.Intn((lengths[k]-probeSpan)/tier)
		w.record(kindAgg, w.agg(names[k], from, from+probeSpan, tier))

		picked := append([]string(nil), names...)
		w.rng.Shuffle(len(picked), func(a, b int) { picked[a], picked[b] = picked[b], picked[a] })
		from = w.rng.Intn(shortest - readWindow)
		w.record(kindBatch, w.batch(picked[:min(batchSeries, len(picked))], from, from+readWindow))
		done += 3

		if i%3 == 0 {
			k = w.rng.Intn(len(names))
			from = w.rng.Intn(lengths[k] - scanSpan + 1)
			w.record(kindScan, w.query(kindScan, names[k], from, from+scanSpan))
			done++
		}
		if (i+1)%(readProbeOps/rateWindows) == 0 {
			rates = append(rates, float64(done)/time.Since(start).Seconds())
			start, done = time.Now(), 0
		}
	}
	m.readsPerS = median(rates)
	scrapes(w)
	return nil
}

func scrapes(w *worker) {
	for i := 0; i < probeScrapes; i++ {
		w.scrape()
	}
}
