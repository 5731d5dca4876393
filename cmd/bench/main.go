// Command bench runs the repository's core-compression and storage-engine
// benchmarks in-process (via testing.Benchmark, with allocation counting
// always on, as with -benchmem) and writes a machine-readable JSON artifact.
// CI invokes it on every run and uploads the result, and perf PRs commit a
// before/after snapshot (BENCH_PR3.json through BENCH_PR10.json) so the
// performance trajectory of the hot paths — impact evaluation, block
// compression, store ingest (including the append-latency percentile pair
// store/append-latency-batch-sync vs store/append-latency-streaming, which
// times every call individually), materializing and streaming queries, aggregate
// pushdown, checkpointed cold bit-stream reads (store/*-bitstream-* and
// store/agg-rollup-cold, each paired with a sidecar-less -replay baseline),
// storage lifecycle (compaction throughput, rollup-tier vs raw
// aggregate queries, post-retention reads), the HTTP serving path
// (server/ingest-*, server/query-*, measured with concurrent clients
// against an httptest server), and the parallel read path (the
// store/query-cold-prefetch-{off,on} readahead pair and the
// server/query-{serial-8,multi-8,multi-64} batch-query trio) — is tracked
// from PR 3 onward.
//
// Usage:
//
//	go run ./cmd/bench [-benchtime 1s|Nx] [-label name] [-out bench.json]
//	                   [-bench regexp] [-compare old.json] [-fail-on-regress]
//
// -out "-" writes to stdout; -bench restricts the run to matching
// benchmark names (handy for re-measuring a noisy pair). -compare diffs
// the run against a previously committed artifact and warns about
// benchmarks whose time/op regressed more than 30% — CI's bench-smoke
// job points it at the latest BENCH_PR*.json. By default the exit status
// is unchanged (shared runners are noisy); -fail-on-regress turns the
// warnings into an exit-1 gate for dedicated perf runners.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cameo "repro"
	"repro/internal/acf"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`

	// Per-op latency percentiles and the blocks' compression ratio,
	// reported only by the store/append-latency-* pair (exact per-call
	// timings, not bucketed; see benchStoreAppendLatency).
	P50NsPerOp float64 `json:"p50_ns_per_op,omitempty"`
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
	Ratio      float64 `json:"compression_ratio,omitempty"`
}

type run struct {
	Label     string   `json:"label"`
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Benchtime string   `json:"benchtime"`
	Results   []result `json:"results"`
}

func benchSeries(n, period int, noise float64) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/float64(period)) + noise*rng.NormFloat64()
	}
	return xs
}

func mustCompress(b *testing.B, xs []float64, opt cameo.Options) {
	b.Helper()
	if _, err := cameo.Compress(xs, opt); err != nil {
		b.Fatal(err)
	}
}

// benchmarks mirrors the tracked subset of the root bench_test.go suite —
// the two acceptance benchmarks of PR 3 (epsilon compression, store append)
// plus the knobs the performance model documents.
func benchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"impact-eval/direct-48", func(b *testing.B) {
			// Steady-state hypothetical evaluation (the Alg. 1 inner loop):
			// must report 0 allocs/op.
			xs := benchSeries(10000, 48, 0.5)
			tr := acf.NewDirectTracker(xs, 48)
			sc := tr.NewScratch()
			deltas := []float64{1.5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Hypothetical(xs, 5000, deltas, sc)
			}
		}},
		{"compress/epsilon-10k-l48", func(b *testing.B) {
			xs := benchSeries(10000, 48, 0.5)
			opt := cameo.Options{Lags: 48, Epsilon: 0.01}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, xs, opt)
			}
		}},
		{"compress/ratio-10k-l48", func(b *testing.B) {
			xs := benchSeries(10000, 48, 0.5)
			opt := cameo.Options{Lags: 48, TargetRatio: 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, xs, opt)
			}
		}},
		{"compress/pacf-2k-l24", func(b *testing.B) {
			xs := benchSeries(2000, 24, 0.5)
			opt := cameo.Options{Lags: 24, Epsilon: 0.01, Statistic: cameo.StatPACF}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, xs, opt)
			}
		}},
		{"compress/aggwindow-10k-k24", func(b *testing.B) {
			xs := benchSeries(10000, 240, 0.5)
			opt := cameo.Options{Lags: 10, Epsilon: 0.01, AggWindow: 24, AggFunc: cameo.AggMean}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, xs, opt)
			}
		}},
		{"compress/lagsubset-full48-5k", func(b *testing.B) {
			xs := benchSeries(5000, 48, 0.5)
			opt := cameo.Options{Lags: 48, Epsilon: 0.01}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, xs, opt)
			}
		}},
		{"compress/lagsubset-3of48-5k", func(b *testing.B) {
			xs := benchSeries(5000, 48, 0.5)
			opt := cameo.Options{Lags: 48, Epsilon: 0.01, LagSubset: []int{1, 24, 48}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, xs, opt)
			}
		}},
		{"store/append-sharded-async", func(b *testing.B) {
			benchStoreAppend(b, 16, 0)
		}},
		{"store/append-single-sync", func(b *testing.B) {
			benchStoreAppend(b, 1, -1)
		}},
		{"store/append-latency-batch-sync", func(b *testing.B) {
			benchStoreAppendLatency(b, false) // block cut compresses inline: the tail-latency spike
		}},
		{"store/append-latency-streaming", func(b *testing.B) {
			benchStoreAppendLatency(b, true) // compression amortized across appends
		}},
		{"store/query-cached", func(b *testing.B) {
			benchStoreQuery(b, 256)
		}},
		{"store/query-cold", func(b *testing.B) {
			benchStoreQuery(b, -1)
		}},
		{"store/cursor-cached", func(b *testing.B) {
			benchStoreCursor(b, 256)
		}},
		{"store/cursor-cold", func(b *testing.B) {
			benchStoreCursor(b, -1)
		}},
		{"store/query-cold-prefetch-off", func(b *testing.B) {
			benchStoreQueryPrefetch(b, 0) // sequential: each cold block read+decoded inline
		}},
		{"store/query-cold-prefetch-on", func(b *testing.B) {
			benchStoreQueryPrefetch(b, 2) // readahead 2: upcoming blocks decode on the pool
		}},
		{"store/agg-pushdown-cold", func(b *testing.B) {
			benchStoreAgg(b, nil) // CAMEO: windows answered from the segment form
		}},
		{"store/agg-fallback-cold", func(b *testing.B) {
			benchStoreAgg(b, cameo.CodecGorilla()) // bit-stream codec: dense fold
		}},
		{"store/compact-merge", func(b *testing.B) {
			benchStoreCompact(b)
		}},
		{"store/agg-raw-month", func(b *testing.B) {
			benchStoreAggMonth(b, false) // pushdown over every raw block
		}},
		{"store/agg-rollup-month", func(b *testing.B) {
			benchStoreAggMonth(b, true) // answered from the materialized tier
		}},
		{"store/query-cold-post-retention", func(b *testing.B) {
			benchStoreQueryPostRetention(b)
		}},
		{"store/query-cold-bitstream-512", func(b *testing.B) {
			benchStoreQueryBitstream(b, 512, 0) // checkpointed seeks (default k=128)
		}},
		{"store/query-cold-bitstream-512-replay", func(b *testing.B) {
			benchStoreQueryBitstream(b, 512, -1) // sidecar-less: full-block replay
		}},
		{"store/query-cold-bitstream-4k", func(b *testing.B) {
			benchStoreQueryBitstream(b, 4096, 0)
		}},
		{"store/agg-rollup-cold", func(b *testing.B) {
			benchStoreAggRollupCold(b, 0) // tier blocks seek via their sidecars
		}},
		{"store/agg-rollup-cold-replay", func(b *testing.B) {
			benchStoreAggRollupCold(b, -1) // sidecar-less tier: dense fold
		}},
		{"server/ingest-lines", func(b *testing.B) {
			benchServerIngest(b, false)
		}},
		{"server/ingest-json", func(b *testing.B) {
			benchServerIngest(b, true)
		}},
		{"server/query-stream-cached", func(b *testing.B) {
			benchServerQuery(b, 256, 512)
		}},
		{"server/query-stream-cold-512", func(b *testing.B) {
			benchServerQuery(b, -1, 512)
		}},
		{"server/query-stream-cold-4k", func(b *testing.B) {
			// 8x the range of cold-512: B/op must grow far less than 8x —
			// the handler streams O(chunk), not O(range).
			benchServerQuery(b, -1, 4096)
		}},
		{"server/query-agg-cold", func(b *testing.B) {
			benchServerAgg(b)
		}},
		{"server/query-serial-8", func(b *testing.B) {
			benchServerMultiQuery(b, 8, true) // 8 series as 8 sequential GETs — the baseline
		}},
		{"server/query-multi-8", func(b *testing.B) {
			benchServerMultiQuery(b, 8, false) // same 8 series as one POST batch
		}},
		{"server/query-multi-64", func(b *testing.B) {
			benchServerMultiQuery(b, 64, false)
		}},
	}
}

// benchStoreQueryPrefetch is the readahead acceptance pair: one client
// scanning a cold 16-block series end to end through a cursor, cache off,
// with the worker pool available. At ra 0 every block's file read + decode
// happens inline between chunks; at ra 2 the next blocks resolve on the
// pool while the caller consumes, so on a multi-core host the scan
// overlaps I/O+decode with consumption (on one vCPU the pair should tie —
// prefetch only moves work).
func benchStoreQueryPrefetch(b *testing.B, ra int) {
	const perSeries = 16 * 2048
	opt := storeOptions(1, 0, -1)
	opt.ReadAhead = ra
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Append("s", benchSeries(perSeries, 48, 0.5)...); err != nil {
		b.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(perSeries * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := store.Cursor("s", 0, perSeries)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			chunk, ok := cur.Next()
			if !ok {
				break
			}
			n += len(chunk)
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		cur.Close()
		if n != perSeries {
			b.Fatalf("cursor yielded %d samples", n)
		}
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchServerMultiQuery is the scatter-gather acceptance trio: a
// dashboard refreshing nSeries panels of 2048 cold samples each, either
// as sequential single-series GETs (serial, the round-trip-bound
// baseline) or as one POST /api/v1/query batch that the store fans out
// worker-pool-wide and streams back as NDJSON sections. The batch form
// pays one HTTP round-trip instead of nSeries and overlaps the
// per-series block decodes, so it must come in well under the serial
// form even on one core.
func benchServerMultiQuery(b *testing.B, nSeries int, serial bool) {
	const perSeries, rangeLen = 8192, 2048
	_, srv := benchHTTPServer(b, -1, nSeries, perSeries)
	names := make([]string, nSeries)
	for s := range names {
		names[s] = fmt.Sprintf("series-%02d", s)
	}
	body, err := json.Marshal(map[string]any{"series": names, "from": 0, "to": rangeLen})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(nSeries * rangeLen * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if serial {
			for _, name := range names {
				resp, err := http.Get(fmt.Sprintf("%s/api/v1/query?series=%s&from=0&to=%d", srv.URL, name, rangeLen))
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || n == 0 {
					b.Fatalf("query: status %d, %d bytes", resp.StatusCode, n)
				}
			}
			continue
		}
		resp, err := http.Post(srv.URL+"/api/v1/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			b.Fatalf("batch query: status %d, %d bytes", resp.StatusCode, n)
		}
	}
}

// benchHTTPServer fronts a freshly filled store with an httptest server
// for the serving-path benchmarks: nSeries of perSeries samples each when
// prefilled, an empty store otherwise.
func benchHTTPServer(b *testing.B, cacheBlocks, nSeries, perSeries int) (*cameo.Store, *httptest.Server) {
	store, err := cameo.OpenStoreOptions(b.TempDir(), storeOptions(16, 0, cacheBlocks))
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		if err := store.Append(fmt.Sprintf("series-%02d", s), benchSeries(perSeries, 48, 0.5)...); err != nil {
			b.Fatal(err)
		}
	}
	if nSeries > 0 {
		if err := store.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	srv := httptest.NewServer(cameo.NewHandler(store, cameo.ServerOptions{}))
	b.Cleanup(func() {
		srv.Close()
		if err := store.Close(); err != nil {
			b.Error(err)
		}
	})
	return store, srv
}

// benchServerIngest measures concurrent HTTP clients pushing 512-sample
// batches through POST /api/v1/write (newline or JSON form); throughput
// is raw sample bytes, as in store/append-*.
func benchServerIngest(b *testing.B, jsonForm bool) {
	_, srv := benchHTTPServer(b, -1, 0, 0)
	chunk := benchSeries(512, 48, 0.5)
	var id atomic.Int64
	b.SetBytes(int64(len(chunk) * 8))
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("series-%02d", id.Add(1))
		var sb strings.Builder
		ct := "text/plain"
		if jsonForm {
			ct = "application/json"
			sb.WriteString(`{"series":[{"name":"` + name + `","values":[`)
			for i, v := range chunk {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
			sb.WriteString(`]}]}`)
		} else {
			for _, v := range chunk {
				sb.WriteString(name)
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				sb.WriteByte('\n')
			}
		}
		body := sb.String()
		for pb.Next() {
			resp, err := http.Post(srv.URL+"/api/v1/write", ct, strings.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("write: status %d", resp.StatusCode)
				return
			}
		}
	})
}

// benchServerQuery measures concurrent clients streaming rangeLen-sample
// NDJSON responses off GET /api/v1/query. The handler walks a cursor and
// encodes chunk by chunk, so per-request server allocations stay O(chunk)
// even when rangeLen spans multiple blocks (compare cold-512 vs cold-4k).
func benchServerQuery(b *testing.B, cacheBlocks, rangeLen int) {
	const nSeries, perSeries = 8, 8192
	_, srv := benchHTTPServer(b, cacheBlocks, nSeries, perSeries)
	var seed atomic.Int64
	b.SetBytes(int64(rangeLen * 8))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			s := rng.Intn(nSeries)
			from := rng.Intn(perSeries - rangeLen)
			resp, err := http.Get(fmt.Sprintf("%s/api/v1/query?series=series-%02d&from=%d&to=%d",
				srv.URL, s, from, from+rangeLen))
			if err != nil {
				b.Error(err)
				return
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || n == 0 {
				b.Errorf("query: status %d, %d bytes", resp.StatusCode, n)
				return
			}
		}
	})
}

// benchServerAgg measures dashboard-style downsampling over HTTP: each
// request maps onto QueryAgg (64-sample windows over a 4096-sample
// range), riding the codec pushdown on the cold CAMEO store.
func benchServerAgg(b *testing.B) {
	const nSeries, perSeries = 8, 8192
	_, srv := benchHTTPServer(b, -1, nSeries, perSeries)
	var seed atomic.Int64
	b.SetBytes(4096 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			s := rng.Intn(nSeries)
			from := rng.Intn(perSeries - 4096)
			resp, err := http.Get(fmt.Sprintf("%s/api/v1/query_agg?series=series-%02d&from=%d&to=%d&step=64",
				srv.URL, s, from, from+4096))
			if err != nil {
				b.Error(err)
				return
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || n == 0 {
				b.Errorf("query_agg: status %d, %d bytes", resp.StatusCode, n)
				return
			}
		}
	})
}

// benchStoreCompact measures one full compaction pass: trickle ingest
// (timer off) leaves 32 quarter-filled blocks, and the timed Maintain
// merges them into 4 full ones — reading, merging, atomically republishing
// and deleting the sources. Throughput is raw sample bytes compacted.
func benchStoreCompact(b *testing.B) {
	const chunkLen, chunks = 512, 32 // quarter-filled against BlockSize 2048
	xs := benchSeries(chunkLen*chunks, 48, 0.5)
	opt := storeOptions(1, -1, -1)
	b.SetBytes(int64(chunkLen * chunks * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < chunks; c++ {
			if err := store.Append("s", xs[c*chunkLen:(c+1)*chunkLen]...); err != nil {
				b.Fatal(err)
			}
			if err := store.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := store.Maintain(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st, err := store.SeriesStats("s"); err != nil || st.Blocks != chunkLen*chunks/2048 {
			b.Fatalf("compaction left %d blocks (err %v)", st.Blocks, err)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchStoreAggMonth measures a month-scale tier-aligned aggregate query
// on a cold store, the rollup acceptance pair: raw answers push down into
// all 32 compressed blocks, rollup answers read the materialized tier's
// single block instead — same windows, same values, far fewer bytes.
func benchStoreAggMonth(b *testing.B, rollup bool) {
	const perSeries = 32 * 2048
	opt := storeOptions(1, -1, -1)
	if rollup {
		opt.Rollups = []cameo.RollupSpec{{Step: 512}}
	}
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Append("s", benchSeries(perSeries, 48, 0.5)...); err != nil {
		b.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	if rollup {
		if err := store.Maintain(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(perSeries * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := store.QueryAgg("s", 0, perSeries, 2048, cameo.AggMean)
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != perSeries/2048 {
			b.Fatalf("QueryAgg yielded %d windows", len(vals))
		}
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchStoreQueryPostRetention mirrors store/query-cold on a store whose
// oldest three quarters were trimmed by retention: random 512-sample reads
// land in the retained suffix and must cost the same as on an untrimmed
// store (the trim base only re-anchors the index).
func benchStoreQueryPostRetention(b *testing.B) {
	const perSeries, retained = 32768, 8192
	opt := storeOptions(1, -1, -1)
	opt.Retention = retained
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Append("s", benchSeries(perSeries, 48, 0.5)...); err != nil {
		b.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := store.Maintain(); err != nil {
		b.Fatal(err)
	}
	st, err := store.SeriesStats("s")
	if err != nil || st.Samples != retained {
		b.Fatalf("retention left %d samples (err %v), want %d", st.Samples, err, retained)
	}
	base := st.FirstIndex
	var seed atomic.Int64
	b.SetBytes(512 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			from := base + rng.Intn(retained-512)
			if _, err := store.Query("s", from, from+512); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchStoreQueryBitstream mirrors store/query-cold on a gorilla-coded
// store with 4096-sample blocks: random rangeLen-sample reads, cache off,
// so every read decodes compressed bit stream. With checkpoints (the
// default, k=128) a cold block decodes O(overlap + k) samples via its
// sidecar; ckptInterval -1 writes sidecar-less v1 blocks and every read
// replays whole blocks from the front — the before/after pair for the
// checkpointed seek path.
func benchStoreQueryBitstream(b *testing.B, rangeLen, ckptInterval int) {
	const nSeries, perSeries = 8, 16384
	opt := storeOptions(16, 0, -1)
	opt.Codec = cameo.CodecGorilla()
	opt.BlockSize = 4096
	opt.CheckpointInterval = ckptInterval
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		if err := store.Append(fmt.Sprintf("series-%02d", s), benchSeries(perSeries, 48, 0.5)...); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.SetBytes(int64(rangeLen * 8))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			s := rng.Intn(nSeries)
			from := rng.Intn(perSeries - rangeLen)
			if _, err := store.Query(fmt.Sprintf("series-%02d", s), from, from+rangeLen); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := store.Stats(); (ckptInterval >= 0) != (st.CheckpointSeeks > 0) {
		b.Fatalf("checkpoint path mismatch (interval %d): %d seeks", ckptInterval, st.CheckpointSeeks)
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchStoreAggRollupCold measures dashboard zoom-in on a materialized
// rollup tier with the cache off: random 8192-sample windows aggregated
// at step 64 are answered by the Step-8 tier, whose gorilla blocks are
// re-read cold on every op. With checkpoints the tier read seeks to just
// the queried windows; ckptInterval -1 leaves the tier sidecar-less and
// each overlapped tier block replays densely from the front.
func benchStoreAggRollupCold(b *testing.B, ckptInterval int) {
	const perSeries = 32 * 2048
	const rangeLen, step = 8192, 64
	opt := storeOptions(1, -1, -1)
	opt.CheckpointInterval = ckptInterval
	opt.Rollups = []cameo.RollupSpec{{Step: 8}}
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Append("s", benchSeries(perSeries, 48, 0.5)...); err != nil {
		b.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := store.Maintain(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(rangeLen * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := rng.Intn((perSeries-rangeLen)/step+1) * step
		vals, err := store.QueryAgg("s", from, from+rangeLen, step, cameo.AggMean)
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != rangeLen/step {
			b.Fatalf("QueryAgg yielded %d windows", len(vals))
		}
	}
	b.StopTimer()
	if st := store.Stats(); (ckptInterval >= 0) != (st.CheckpointSeeks > 0) {
		b.Fatalf("checkpoint path mismatch (interval %d): %d seeks", ckptInterval, st.CheckpointSeeks)
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

func storeOptions(shards, workers, cacheBlocks int) cameo.StoreOptions {
	return cameo.StoreOptions{
		Compression: cameo.Options{Lags: 24, Epsilon: 0.05},
		BlockSize:   2048,
		Shards:      shards,
		Workers:     workers,
		CacheBlocks: cacheBlocks,
	}
}

// benchStoreAppendLatency measures the per-call latency distribution of
// Append under steady 64-sample-chunk ingest on one series — the PR 8
// acceptance pair. Every op is timed individually and the sorted set is
// reported as p50/p99/max metrics: with 2048-sample blocks a cut lands on
// 1 in 32 appends, so the block-cut cost sits squarely inside the p99. The
// batch-sync run compresses each cut inline (the spike the streaming mode
// amortizes); the streaming run spreads the same work across the appends
// feeding the block, so its p99 must sit far below the batch one while the
// blocks themselves stay byte-identical (the ratio metric pins that).
func benchStoreAppendLatency(b *testing.B, streaming bool) {
	const chunkLen = 64
	chunk := benchSeries(chunkLen, 48, 0.5)
	opt := storeOptions(1, -1, -1)
	if streaming {
		opt.Streaming = true
		opt.Workers = 0 // persists ride the pool; compression rides the appends
		// The cap must exceed the steady-state compression work one chunk's
		// arrival brings (~block cost / 32 here), or every cut arrives
		// before its block finishes and the forced residue lands back in
		// the tail. 5ms covers it with margin on a single-core runner while
		// staying far under the batch cut spike.
		opt.MaxAppendLatency = 5 * time.Millisecond
	}
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	durs := make([]time.Duration, 0, b.N)
	b.SetBytes(chunkLen * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := store.Append("s", chunk...); err != nil {
			b.Fatal(err)
		}
		durs = append(durs, time.Since(t0))
	}
	b.StopTimer()
	if err := store.Sync(); err != nil {
		b.Fatal(err)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(q float64) float64 {
		return float64(durs[min(int(q*float64(len(durs))), len(durs)-1)].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ns/op")
	b.ReportMetric(pct(0.99), "p99-ns/op")
	b.ReportMetric(float64(durs[len(durs)-1].Nanoseconds()), "max-ns/op")
	if st := store.Stats(); st.BytesWritten > 0 {
		// Ratio over the block-covered samples (the tail is not on disk).
		blockSamples := b.N * chunkLen / 2048 * 2048
		b.ReportMetric(float64(blockSamples*8)/float64(st.BytesWritten), "ratio")
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchStoreAppend(b *testing.B, shards, workers int) {
	chunk := benchSeries(512, 48, 0.5)
	store, err := cameo.OpenStoreOptions(b.TempDir(), storeOptions(shards, workers, -1))
	if err != nil {
		b.Fatal(err)
	}
	var id atomic.Int64
	b.SetBytes(int64(len(chunk) * 8))
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("series-%02d", id.Add(1))
		for pb.Next() {
			if err := store.Append(name, chunk...); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := store.Sync(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchStoreQuery(b *testing.B, cacheBlocks int) {
	const nSeries, perSeries = 8, 8192
	store, err := cameo.OpenStoreOptions(b.TempDir(), storeOptions(16, 0, cacheBlocks))
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		if err := store.Append(fmt.Sprintf("series-%02d", s), benchSeries(perSeries, 48, 0.5)...); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.SetBytes(512 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			s := rng.Intn(nSeries)
			from := rng.Intn(perSeries - 512)
			if _, err := store.Query(fmt.Sprintf("series-%02d", s), from, from+512); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchStoreCursor mirrors benchStoreQuery's workload (random 512-sample
// windows of 8192-sample series, blocks of 2048) but streams each range
// through a Cursor instead of materializing it: cold runs range-decode
// only the overlap, cached runs yield cache sub-slices with no copy.
func benchStoreCursor(b *testing.B, cacheBlocks int) {
	const nSeries, perSeries = 8, 8192
	store, err := cameo.OpenStoreOptions(b.TempDir(), storeOptions(16, 0, cacheBlocks))
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		if err := store.Append(fmt.Sprintf("series-%02d", s), benchSeries(perSeries, 48, 0.5)...); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.SetBytes(512 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			s := rng.Intn(nSeries)
			from := rng.Intn(perSeries - 512)
			cur, err := store.Cursor(fmt.Sprintf("series-%02d", s), from, from+512)
			if err != nil {
				b.Error(err)
				return
			}
			n := 0
			for {
				chunk, ok := cur.Next()
				if !ok {
					break
				}
				n += len(chunk)
			}
			if err := cur.Err(); err != nil {
				b.Error(err)
				return
			}
			cur.Close()
			if n != 512 {
				b.Errorf("cursor yielded %d samples", n)
				return
			}
		}
	})
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchStoreAgg measures QueryAgg answering dashboard-style downsampling
// (64-sample windows over 4096-sample ranges) on a cold store: with the
// CAMEO codec (c nil) every block aggregates via codec pushdown without
// materializing samples; with a bit-stream codec the cursor fallback
// decodes and folds densely.
func benchStoreAgg(b *testing.B, c cameo.Codec) {
	const nSeries, perSeries = 8, 8192
	opt := storeOptions(16, 0, -1)
	opt.Codec = c
	store, err := cameo.OpenStoreOptions(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		if err := store.Append(fmt.Sprintf("series-%02d", s), benchSeries(perSeries, 48, 0.5)...); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.SetBytes(4096 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			s := rng.Intn(nSeries)
			from := rng.Intn(perSeries - 4096)
			vals, err := store.QueryAgg(fmt.Sprintf("series-%02d", s), from, from+4096, 64, cameo.AggMean)
			if err != nil {
				b.Error(err)
				return
			}
			if len(vals) != 64 {
				b.Errorf("QueryAgg yielded %d windows", len(vals))
				return
			}
		}
	})
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output file (- for stdout)")
	label := flag.String("label", "current", "label recorded in the artifact")
	benchtime := flag.String("benchtime", "1s", "per-benchmark duration or iteration count (Nx)")
	benchFilter := flag.String("bench", "", "run only benchmarks whose name matches this regexp")
	compare := flag.String("compare", "", "baseline artifact to diff against; warns on >30% time/op regressions")
	failOnRegress := flag.Bool("fail-on-regress", false, "exit 1 when -compare finds a regression (default: warn only, for noisy shared runners)")
	flag.Parse()

	var filter *regexp.Regexp
	if *benchFilter != "" {
		var err error
		if filter, err = regexp.Compile(*benchFilter); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	// testing.Benchmark honours the standard -test.benchtime flag; register
	// the testing flags so it can be set without a test binary.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	r := run{
		Label:     *label,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Benchtime: *benchtime,
	}
	failed := 0
	for _, bm := range benchmarks() {
		if filter != nil && !filter.MatchString(bm.name) {
			continue
		}
		res := testing.Benchmark(bm.fn)
		if res.N == 0 {
			// The benchmark func called b.Fatal/b.Error (testing.Benchmark
			// swallows the message). Record the failure instead of emitting
			// 0/0 = NaN, which JSON cannot encode.
			failed++
			fmt.Fprintf(os.Stderr, "%-32s FAILED (benchmark aborted; re-run under `go test -bench` for details)\n", bm.name)
			continue
		}
		entry := result{
			Name:        bm.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if mbs, ok := res.Extra["MB/s"]; ok {
			entry.MBPerSec = mbs
		} else if res.Bytes > 0 && res.T > 0 {
			entry.MBPerSec = (float64(res.Bytes) * float64(res.N) / 1e6) / res.T.Seconds()
		}
		entry.P50NsPerOp = res.Extra["p50-ns/op"]
		entry.P99NsPerOp = res.Extra["p99-ns/op"]
		entry.MaxNsPerOp = res.Extra["max-ns/op"]
		entry.Ratio = res.Extra["ratio"]
		r.Results = append(r.Results, entry)
		fmt.Fprintf(os.Stderr, "%-32s %10d ops  %14.1f ns/op  %8d B/op  %6d allocs/op\n",
			bm.name, entry.Iterations, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
	}

	regressed := false
	if *compare != "" {
		old, err := loadRun(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: -compare:", err)
			os.Exit(1)
		}
		if note := cpuMismatch(old, r); note != "" {
			fmt.Fprintln(os.Stderr, "bench: CPU MISMATCH", note)
		}
		warnings := compareRuns(old, r, regressionThreshold)
		if len(warnings) == 0 {
			fmt.Fprintf(os.Stderr, "bench: no >%.0f%% time/op regressions vs %s (%s)\n",
				regressionThreshold*100, *compare, old.Label)
		}
		for _, w := range warnings {
			// Warn-only by default: shared CI runners are noisy enough that
			// an unconditional hard gate would flake, but the line makes a
			// real regression visible in the job log. -fail-on-regress turns
			// the warnings into an exit-1 gate for dedicated runners.
			fmt.Fprintln(os.Stderr, "bench: REGRESSION", w)
		}
		regressed = len(warnings) > 0
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *out)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d benchmark(s) failed\n", failed)
		os.Exit(1)
	}
	if regressed && *failOnRegress {
		fmt.Fprintln(os.Stderr, "bench: failing on regression (-fail-on-regress)")
		os.Exit(1)
	}
}
