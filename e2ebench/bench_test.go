package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPercentileNearestRankAndBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: percentile must sort
	}
	p := percentile(xs, 0.99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.Valid {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, 10 beyond, valid", p)
	}
	p = percentile(xs[:999], 0.99)
	if p.Beyond != 9 || p.Valid || p.N != 999 {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and invalid", p)
	}
	if m := percentile([]float64{3, 1, 2}, 0.5); m.Value != 2 || m.Beyond != 1 {
		t.Fatalf("median of {3,1,2} = %+v, want 2 with 1 beyond", m)
	}
	if p := percentile(nil, 0.99); p.N != 0 || p.Valid {
		t.Fatalf("empty percentile = %+v", p)
	}
	// A failed request is +Inf: with 11 failures in 1000 the p99 is a miss.
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if p := percentile(xs, 0.99); !math.IsInf(p.Value, 1) {
		t.Fatalf("p99 with 11 failures of 1000 = %v, want +Inf", p.Value)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Kind: kindQuery, Name: layerOp, Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Op: 1, Name: layerServer, Start: at(1), End: at(9)},
		// Two tsdb-level children that overlap: together they cover 2..8,
		// 6 ms, not the 8 ms their durations sum to.
		{ID: 3, Parent: 2, Op: 1, Name: layerTSDB, Start: at(2), End: at(6)},
		{ID: 4, Parent: 2, Op: 1, Name: layerTSDB, Start: at(4), End: at(8)},
	}
	got := attributeAll(spans)
	if len(got) != 1 {
		t.Fatalf("%d attributions, want 1", len(got))
	}
	a := got[0]
	ms := time.Millisecond
	if a.Unattributed != 2*ms || a.Self[layerServer] != 2*ms || a.Self[layerTSDB] != 6*ms || a.Capped {
		t.Fatalf("attribution %+v, want unattributed 2ms, server 2ms, tsdb 6ms, nothing capped", a)
	}
	assertIdentity(t, a)
}

func TestSelfTimeCapsReplayedChildren(t *testing.T) {
	// A replayed child longer than its parent (codec work replayed under a
	// fast asynchronous append) claims at most the parent's time, and the
	// claim is shared by duration; nothing goes negative.
	spans := []span{
		{ID: 1, Op: 1, Kind: kindWrite, Name: layerOp, Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Op: 1, Name: layerServer, Start: at(0), End: at(8)},
		{ID: 3, Parent: 2, Op: 1, Name: layerTSDB, Start: at(20), End: at(24)},
		{ID: 4, Parent: 3, Op: 1, Name: layerCodec, Start: at(30), End: at(130)},
		{ID: 5, Parent: 4, Op: 1, Name: layerCore, Start: at(200), End: at(290)},
	}
	a := attributeAll(spans)[0]
	ms := time.Millisecond
	if a.Self[layerServer] != 4*ms || a.Self[layerTSDB] != 0 || a.Self[layerCodec] != 0 || a.Self[layerCore] != 4*ms {
		t.Fatalf("attribution %+v, want server 4ms, tsdb 0, codec 0, core 4ms", a)
	}
	// The cap is reported, and the replays' own durations are kept.
	if !a.Capped || a.Replay[layerTSDB] != 4*ms || a.Replay[layerCodec] != 100*ms || a.Replay[layerCore] != 90*ms {
		t.Fatalf("attribution %+v, want capped with replays tsdb 4ms, codec 100ms, core 90ms", a)
	}
	assertIdentity(t, a)

	// Randomized trees keep the identity exactly.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var ss []span
		id := int64(1)
		ss = append(ss, span{ID: id, Op: 1, Kind: kindBatch, Name: layerOp, Start: at(0), End: at(1 + rng.Intn(50))})
		parents := []int64{1}
		for _, layer := range append([]string{layerServer}, replayedLayers(kindWrite)...) {
			var next []int64
			for _, p := range parents {
				for k := 0; k < 1+rng.Intn(3); k++ {
					id++
					s := rng.Intn(60)
					ss = append(ss, span{ID: id, Parent: p, Op: 1, Name: layer, Start: at(s), End: at(s + rng.Intn(40))})
					next = append(next, id)
				}
			}
			parents = next
		}
		assertIdentity(t, attributeAll(ss)[0])
	}
}

func assertIdentity(t *testing.T, a attribution) {
	t.Helper()
	sum := a.Unattributed
	for _, d := range a.Self {
		if d < 0 {
			t.Fatalf("negative self time in %+v", a)
		}
		sum += d
	}
	if sum != a.Total {
		t.Fatalf("self times + unattributed = %v, want total %v (%+v)", sum, a.Total, a)
	}
}

// fakeClock advances only when the schedule sleeps or an operation runs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) spend(ms int)          { c.t = c.t.Add(time.Duration(ms) * time.Millisecond) }

func millis(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	c := &fakeClock{t: at(0)}
	// Due every 10 ms. Operation 1 stalls for 35 ms; the ones behind it
	// are sent late and their latency counts the wait from their due time.
	cost := []int{2, 35, 2, 2, 2}
	got := openLoop(len(cost), 10*time.Millisecond, c.now(), c.now, c.sleep, func(i int) error {
		c.spend(cost[i])
		return nil
	})
	// Due 0, 10, 20, 30, 40; sent 0, 10, 45, 47, 49; done 2, 45, 47, 49, 51.
	wantLate := millis(0, 0, 25, 17, 9)
	wantLatency := millis(2, 35, 27, 19, 11)
	for i, s := range got {
		if s.Late != wantLate[i] || s.Latency != wantLatency[i] {
			t.Errorf("op %d: late %v latency %v, want late %v latency %v", i, s.Late, s.Latency, wantLate[i], wantLatency[i])
		}
	}
	var late []float64
	for _, s := range got {
		late = append(late, ms(s.Late))
	}
	if p := percentile(late, 0.99); p.Value != 25 {
		t.Errorf("late p99 = %v, want 25", p.Value)
	}
}

func TestRefusedWritesCountAsFailures(t *testing.T) {
	for _, status := range []int{http.StatusRequestEntityTooLarge, http.StatusTooManyRequests} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "refused", status)
		}))
		e := &env{in: newInputs(), rec: newRecorder(), cl: newClient(srv.URL)}
		e.in.add("s", 0, 64, 1)
		w := &worker{e: e, rng: rand.New(rand.NewSource(1))}
		w.record(kindWrite, w.write("s", e.in.data["s"][:16]))
		w.record(kindWrite, w.write("s", e.in.data["s"][:16]))
		srv.Close()
		e.cl.close()
		if e.rec.attempted != 2 || e.rec.failed != 2 || e.rec.refused != 2 {
			t.Fatalf("status %d: attempted %d failed %d refused %d, want 2/2/2", status, e.rec.attempted, e.rec.failed, e.rec.refused)
		}
		if n := e.in.written["s"].Load(); n != 0 {
			t.Fatalf("status %d: refused writes advanced the series to %d", status, n)
		}
		if p := percentile(e.rec.latencies(kindWrite), 0.5); !math.IsInf(p.Value, 1) {
			t.Fatalf("status %d: refused write latency %v, want +Inf (misses every limit)", status, p.Value)
		}
	}
}

func TestParseBatchSections(t *testing.T) {
	body := []byte(`{"series":"a","start":0,"values":[1,2]}
{"series":"a","start":2,"values":[3]}
{"series":"b","start":0,"values":[]}
`)
	got, err := parseBatch(body, []string{"a", "b"})
	if err != nil || len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 0 {
		t.Fatalf("parseBatch = %v, %v", got, err)
	}
	if _, err := parseBatch([]byte(`{"series":"a","error":"boom"}`), []string{"a"}); err == nil {
		t.Fatal("in-body error not reported")
	}
}

func TestRecentWindowsStayInsideTheSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 20000
	recent := 0
	for i := 0; i < trials; i++ {
		for _, c := range []struct{ span, align int }{{readWindow, 1}, {dashAggSpan, dashTier}, {dashAggSpan, 1}} {
			from := recentFrom(rng, dashLength, c.span, c.align)
			if from < 0 || from+c.span > dashLength || from%c.align != 0 {
				t.Fatalf("window [%d,%d) aligned %d outside the %d-sample series", from, from+c.span, c.align, dashLength)
			}
		}
		if recentFrom(rng, dashLength, readWindow, 1) >= dashLength-4096 {
			recent++
		}
	}
	// 85% are drawn from the newest block, and a share of the rest land
	// there too: the newest block holds 3585 of the 7681 possible starts.
	want := dashRecentShare + (1-dashRecentShare)*3585/7681
	if got := float64(recent) / trials; math.Abs(got-want) > 0.01 {
		t.Fatalf("share of windows in the newest block = %.3f, want %.3f", got, want)
	}
}

func TestZipfDrawsByInverseRank(t *testing.T) {
	z := newZipf(4)
	rng := rand.New(rand.NewSource(1))
	counts := make([]float64, 4)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[z.draw(rng)]++
	}
	h := 1 + 1.0/2 + 1.0/3 + 1.0/4
	for k, c := range counts {
		if want := 1 / float64(k+1) / h; math.Abs(c/trials-want) > 0.01 {
			t.Fatalf("item %d drawn %.3f of the time, want %.3f", k, c/trials, want)
		}
	}
	if got := z.distinct(rng, []string{"a", "b", "c", "d"}, 4); len(got) != 4 {
		t.Fatalf("distinct = %v", got)
	}
}
