package tsdb

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/series"
)

// cursorCodecs enumerates one encode-capable instance of every registered
// codec for the read-path differential tests.
func cursorCodecs() map[string]codec.Codec {
	return map[string]codec.Codec{
		"cameo":    codec.NewCAMEO(core.Options{Lags: 24, Epsilon: 0.05}),
		"gorilla":  codec.Gorilla{},
		"chimp":    codec.Chimp{},
		"elf":      codec.Elf{},
		"pmc":      codec.PMC{},
		"swing":    codec.Swing{},
		"simpiece": codec.SimPiece{},
	}
}

// collect drains a cursor into one slice, failing the test on a cursor
// error.
func collect(t *testing.T, cur *Cursor) []float64 {
	t.Helper()
	var out []float64
	for {
		chunk, ok := cur.Next()
		if !ok {
			break
		}
		out = append(out, chunk...)
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return out
}

// TestCursorMatchesQueryAllCodecs is the read-path differential: across
// every codec, warm and cold, the cursor-collected output, QueryInto, and
// the legacy slice Query agree bit for bit over a sweep of ranges that
// cross block boundaries and reach into the tail.
func TestCursorMatchesQueryAllCodecs(t *testing.T) {
	for name, c := range cursorCodecs() {
		t.Run(name, func(t *testing.T) {
			opt := dbOptions()
			opt.Codec = c
			dir := t.TempDir()
			db, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			total := 3*opt.BlockSize + 100 // 3 durable blocks + verbatim tail
			if err := db.Append("s", sensorData(total, 5)...); err != nil {
				t.Fatal(err)
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			ranges := [][2]int{
				{0, total}, {0, 1}, {total - 1, total}, {100, opt.BlockSize + 100},
				{opt.BlockSize - 1, opt.BlockSize + 1}, {3 * opt.BlockSize, total},
				{3*opt.BlockSize - 50, total - 20}, {700, 800},
			}
			check := func(stage string) {
				t.Helper()
				for _, r := range ranges {
					want, err := db.Query("s", r[0], r[1])
					if err != nil {
						t.Fatalf("%s: Query(%d,%d): %v", stage, r[0], r[1], err)
					}
					cur, err := db.Cursor("s", r[0], r[1])
					if err != nil {
						t.Fatalf("%s: Cursor(%d,%d): %v", stage, r[0], r[1], err)
					}
					got := collect(t, cur)
					cur.Close()
					if len(got) != len(want) {
						t.Fatalf("%s: cursor(%d,%d) yielded %d samples, Query %d", stage, r[0], r[1], len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: cursor(%d,%d)[%d] = %v, Query has %v", stage, r[0], r[1], i, got[i], want[i])
						}
					}
					into, err := db.QueryInto("s", r[0], r[1], make([]float64, 0, 8))
					if err != nil {
						t.Fatalf("%s: QueryInto(%d,%d): %v", stage, r[0], r[1], err)
					}
					for i := range want {
						if into[i] != want[i] {
							t.Fatalf("%s: QueryInto(%d,%d)[%d] = %v, Query has %v", stage, r[0], r[1], i, into[i], want[i])
						}
					}
				}
			}
			check("warm")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(dir, opt) // cold: every block decodes from disk
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			check("cold")
		})
	}
}

// TestCursorAndQueryEdgeCases pins the boundary semantics shared by
// Query, QueryInto, Cursor, and QueryAgg: clamped bounds, empty ranges,
// and unknown series.
func TestCursorAndQueryEdgeCases(t *testing.T) {
	opt := dbOptions()
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	total := opt.BlockSize + 40
	xs := sensorData(total, 9)
	if err := db.Append("s", xs...); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Cursor("nope", 0, 10); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("Cursor on unknown series: %v", err)
	}
	if _, err := db.QueryAgg("nope", 0, 10, 5, series.AggMean); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("QueryAgg on unknown series: %v", err)
	}

	// from < 0 and to > total clamp to the full series.
	got, err := db.Query("s", -100, total+999)
	if err != nil || len(got) != total {
		t.Fatalf("clamped Query: %d samples, err %v", len(got), err)
	}
	cur, err := db.Cursor("s", -100, total+999)
	if err != nil {
		t.Fatal(err)
	}
	if c := collect(t, cur); len(c) != total {
		t.Fatalf("clamped cursor: %d samples", len(c))
	}
	cur.Close()

	// Inverted ranges are caller bugs and error (ErrInvalidRange) instead
	// of returning a silent empty, uniformly across the read surface.
	if _, err := db.Query("s", 50, 20); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("inverted Query: %v", err)
	}
	if _, err := db.QueryInto("s", 50, 20, nil); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("inverted QueryInto: %v", err)
	}
	if _, err := db.Cursor("s", 50, 20); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("inverted Cursor: %v", err)
	}
	if _, err := db.QueryAgg("s", 50, 20, 4, series.AggSum); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("inverted QueryAgg: %v", err)
	}

	// Empty ranges yield nil without error, matching the legacy Query.
	for _, r := range [][2]int{{10, 10}, {total, total + 5}, {-5, -1}} {
		if got, err := db.Query("s", r[0], r[1]); err != nil || got != nil {
			t.Fatalf("empty Query(%d,%d) = %v, %v", r[0], r[1], got, err)
		}
		cur, err := db.Cursor("s", r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if chunk, ok := cur.Next(); ok {
			t.Fatalf("empty cursor(%d,%d) yielded %d samples", r[0], r[1], len(chunk))
		}
		cur.Close()
		if agg, err := db.QueryAgg("s", r[0], r[1], 4, series.AggSum); err != nil || agg != nil {
			t.Fatalf("empty QueryAgg(%d,%d) = %v, %v", r[0], r[1], agg, err)
		}
	}

	// Close is idempotent and stops iteration.
	cur, err = db.Cursor("s", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("first Next failed")
	}
	cur.Close()
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Fatal("Next after Close yielded a chunk")
	}

	// QueryAgg validates its step and aggregate function.
	if _, err := db.QueryAgg("s", 0, total, 0, series.AggMean); err == nil {
		t.Fatal("QueryAgg accepted step 0")
	}
	if _, err := db.QueryAgg("s", 0, total, -3, series.AggMean); err == nil {
		t.Fatal("QueryAgg accepted negative step")
	}
	if _, err := db.QueryAgg("s", 0, total, 8, AggFunc(99)); err == nil {
		t.Fatal("QueryAgg accepted an unknown aggregate")
	}
}

// gatedCodec wraps a codec so the test can hold Encode until released,
// keeping a cut block in the pending set at snapshot time.
type gatedCodec struct {
	codec.Codec
	gate chan struct{} // closed to release encodes
}

func (g *gatedCodec) Encode(xs []float64) ([]byte, error) {
	<-g.gate
	return g.Codec.Encode(xs)
}

// TestCursorSpansDurablePendingAndTail snapshots a range that crosses a
// durable block, a block whose compression is intentionally stalled, and
// the in-memory tail — all at once — and checks the cursor only waits for
// the pending block when iteration reaches it.
func TestCursorSpansDurablePendingAndTail(t *testing.T) {
	g := &gatedCodec{Codec: codec.Gorilla{}, gate: make(chan struct{})}
	opt := dbOptions()
	opt.Codec = g
	opt.Workers = 1
	opt.Shards = 1
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	bs := opt.BlockSize
	xs := sensorData(2*bs+100, 3)

	// First block: let it land durably.
	close(g.gate)
	if err := db.Append("s", xs[:bs]...); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Second block: stall its compression so it stays pending; the rest
	// stays in the tail.
	g.gate = make(chan struct{})
	if err := db.Append("s", xs[bs:]...); err != nil {
		t.Fatal(err)
	}

	cur, err := db.Cursor("s", bs/2, 2*bs+60)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.snap.segs) != 2 || cur.snap.segs[1].pending == nil {
		t.Fatalf("snapshot: %d segments, pending=%v — want durable+pending", len(cur.snap.segs), cur.snap.segs[1].pending != nil)
	}
	if len(cur.snap.tail) != 60-(0) && len(cur.snap.tail) != 60 {
		t.Fatalf("snapshot tail holds %d samples, want 60", len(cur.snap.tail))
	}

	// The durable chunk arrives without waiting on the stalled block.
	first, ok := cur.Next()
	if !ok || len(first) != bs-bs/2 {
		t.Fatalf("first chunk: ok=%v len=%d, want %d", ok, len(first), bs-bs/2)
	}
	// Release the compression, then drain: pending chunk + tail chunk.
	close(g.gate)
	rest := collect(t, cur)
	cur.Close()
	got := append(append([]float64(nil), first...), rest...)
	want := xs[bs/2 : 2*bs+60]
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] { // gorilla is lossless: exact replay
			t.Fatalf("sample %d: %v, want %v", i, got[i], want[i])
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingCodec wraps a random-access codec and counts what the engine
// decodes: full-block decodes, range-decoded samples, and aggregate
// pushdowns. It reuses the wrapped codec's ID, so a store reopened with it
// routes all decoding through the counters.
type countingCodec struct {
	inner        codec.Codec
	fullDecodes  atomic.Int64
	rangeSamples atomic.Int64
	rangeCalls   atomic.Int64
	aggCalls     atomic.Int64
}

func (c *countingCodec) Name() string { return c.inner.Name() }
func (c *countingCodec) ID() uint8    { return c.inner.ID() }
func (c *countingCodec) Lossy() bool  { return c.inner.Lossy() }
func (c *countingCodec) Encode(xs []float64) ([]byte, error) {
	return c.inner.Encode(xs)
}
func (c *countingCodec) Decode(data []byte, n int) ([]float64, error) {
	c.fullDecodes.Add(1)
	return c.inner.Decode(data, n)
}
func (c *countingCodec) DecodeRange(data, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	c.rangeCalls.Add(1)
	c.rangeSamples.Add(int64(hi - lo))
	return c.inner.DecodeRange(data, sidecar, n, lo, hi, dst)
}
func (c *countingCodec) DecodeWindowAggs(data, sidecar []byte, n, lo, hi, anchor, step int, aggs []codec.RangeAgg) (int, error) {
	c.aggCalls.Add(1)
	return c.inner.DecodeWindowAggs(data, sidecar, n, lo, hi, anchor, step, aggs)
}

// TestColdRangeQueryDecodesOnlyOverlap proves the pushdown acceptance
// criterion: a cold range query touching k of B blocks decodes exactly the
// overlapping samples for a segment codec — edge blocks by range decode,
// fully-covered interior blocks by (cached-path) full decode — never the
// full B-block reconstruction.
func TestColdRangeQueryDecodesOnlyOverlap(t *testing.T) {
	opt := dbOptions()
	opt.Codec = codec.Swing{}
	opt.Workers = -1
	dir := t.TempDir()
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	bs := opt.BlockSize
	const blocks = 4
	if err := db.Append("s", sensorData(blocks*bs, 13)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cc := &countingCodec{inner: codec.Swing{}}
	opt.Codec = cc
	opt.CacheBlocks = -1 // cold every time: decode counts are exact
	db, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Partial range inside one block: only hi-lo samples decode.
	if _, err := db.Query("s", 100, 200); err != nil {
		t.Fatal(err)
	}
	if got := cc.rangeSamples.Load(); got != 100 {
		t.Fatalf("decoded %d samples for a 100-sample range", got)
	}
	if got := cc.fullDecodes.Load(); got != 0 {
		t.Fatalf("%d full-block decodes for a sub-block range", got)
	}

	// A range spanning k=3 of B=4 blocks with partial edges: the two edge
	// overlaps range-decode, the fully-covered interior block decodes
	// whole — total decoded samples == the query overlap, and the
	// untouched 4th block contributes nothing.
	cc.rangeSamples.Store(0)
	from, to := bs-50, 2*bs+70
	if _, err := db.Query("s", from, to); err != nil {
		t.Fatal(err)
	}
	edge := cc.rangeSamples.Load()
	full := cc.fullDecodes.Load()
	if edge != 50+70 || full != 1 {
		t.Fatalf("k-block query decoded %d edge samples (want %d) and %d full blocks (want 1)",
			edge, 50+70, full)
	}
	if s := db.Stats(); s.RangeDecodes != 3 {
		t.Fatalf("Stats.RangeDecodes = %d, want 3 (two edges + first query)", s.RangeDecodes)
	}
}

// TestQueryAggPushdownNeverMaterializes proves the aggregate acceptance
// criterion: over a cold PMC/Swing/SimPiece/CAMEO store, QueryAgg answers
// fully-covered blocks through DecodeWindowAggs alone — zero Decode and zero
// DecodeRange calls — and the window values match folding the materialized
// Query output.
func TestQueryAggPushdownNeverMaterializes(t *testing.T) {
	segmentCodecs := map[string]codec.Codec{
		"pmc":      codec.PMC{},
		"swing":    codec.Swing{},
		"simpiece": codec.SimPiece{},
		"cameo":    codec.NewCAMEO(core.Options{Lags: 24, Epsilon: 0.05}),
	}
	for name, inner := range segmentCodecs {
		t.Run(name, func(t *testing.T) {
			opt := dbOptions()
			opt.Codec = inner
			opt.Workers = -1
			dir := t.TempDir()
			db, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			bs := opt.BlockSize
			total := 3 * bs
			if err := db.Append("s", sensorData(total, 21)...); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			cc := &countingCodec{inner: inner}
			opt.Codec = cc
			opt.CacheBlocks = -1
			db, err = Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			step := 100
			for _, f := range []AggFunc{series.AggMean, series.AggSum, series.AggMax, series.AggMin} {
				cc.fullDecodes.Store(0)
				cc.rangeCalls.Store(0)
				got, err := db.QueryAgg("s", 0, total, step, f)
				if err != nil {
					t.Fatal(err)
				}
				if cc.fullDecodes.Load() != 0 || cc.rangeCalls.Load() != 0 {
					t.Fatalf("%v: QueryAgg materialized samples (%d full decodes, %d range decodes)",
						f, cc.fullDecodes.Load(), cc.rangeCalls.Load())
				}
				if cc.aggCalls.Load() == 0 {
					t.Fatalf("%v: no aggregate pushdown happened", f)
				}
				// Reference: fold the materialized reconstruction.
				dense, err := db.Query("s", 0, total)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, 0, (total+step-1)/step)
				for lo := 0; lo < total; lo += step {
					want = append(want, f.Apply(dense[lo:min(lo+step, total)]))
				}
				if len(got) != len(want) {
					t.Fatalf("%v: %d windows, want %d", f, len(got), len(want))
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9*(math.Abs(want[i])+1) {
						t.Fatalf("%v window %d: %v, want %v", f, i, got[i], want[i])
					}
				}
			}
			if s := db.Stats(); s.AggPushdowns == 0 {
				t.Fatal("Stats.AggPushdowns did not count the pushdowns")
			}
		})
	}
}

// TestQueryAggWindowsAndFallback checks window boundary semantics (partial
// last window, step beyond the range, ranges starting mid-window source)
// and the dense fallback paths: a bit-stream codec, warm cache, and the
// in-memory tail.
func TestQueryAggWindowsAndFallback(t *testing.T) {
	opt := dbOptions()
	opt.Codec = codec.Gorilla{}
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	total := opt.BlockSize + 130 // one durable block + tail
	xs := sensorData(total, 31)
	if err := db.Append("s", xs...); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}

	check := func(from, to, step int, f AggFunc) {
		t.Helper()
		got, err := db.QueryAgg("s", from, to, step, f)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := db.Query("s", from, to)
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		for lo := 0; lo < len(dense); lo += step {
			want = append(want, f.Apply(dense[lo:min(lo+step, len(dense))]))
		}
		if len(got) != len(want) {
			t.Fatalf("QueryAgg(%d,%d,%d): %d windows, want %d", from, to, step, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(math.Abs(want[i])+1) {
				t.Fatalf("QueryAgg(%d,%d,%d) window %d: %v, want %v", from, to, step, i, got[i], want[i])
			}
		}
	}
	check(0, total, 64, series.AggMean)               // partial last window
	check(0, total, total+500, series.AggSum)         // one window covering everything
	check(37, total-13, 50, series.AggMax)            // range not window-aligned
	check(opt.BlockSize-10, total, 7, series.AggMin)  // block edge + tail
	check(opt.BlockSize+5, total, 16, series.AggMean) // tail only
}
