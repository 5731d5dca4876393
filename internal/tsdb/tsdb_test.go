package tsdb

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acf"
	"repro/internal/core"
	"repro/internal/stats"
)

func dbOptions() Options {
	return Options{
		Compression: core.Options{Lags: 24, Epsilon: 0.02},
		BlockSize:   512,
	}
}

func sensorData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 20 + 8*math.Sin(2*math.Pi*float64(i)/24) + 0.4*rng.NormFloat64()
	}
	return xs
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("expected error for empty options")
	}
	if _, err := Open(t.TempDir(), Options{
		Compression: core.Options{Lags: 200, Epsilon: 0.01},
		BlockSize:   100,
	}); err == nil {
		t.Fatal("expected error for BlockSize below the statistic minimum")
	}
}

func TestAppendQueryRoundtrip(t *testing.T) {
	db, err := Open(t.TempDir(), dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	xs := sensorData(1500, 1)
	if err := db.Append("room1", xs...); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query("room1", 0, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("query returned %d samples, want %d", len(got), len(xs))
	}
	// Reconstruction is lossy but each block's ACF deviation is bounded.
	for b := 0; b+512 <= len(xs); b += 512 {
		dev := stats.MAE(acf.ACF(xs[b:b+512], 24), acf.ACF(got[b:b+512], 24))
		if dev > 0.02+1e-9 {
			t.Fatalf("block at %d: ACF deviation %v exceeds bound", b, dev)
		}
	}
	// The uncompressed tail is exact.
	for i := 1024; i < 1500; i++ {
		if got[i] != xs[i] {
			t.Fatalf("tail sample %d: %v != %v", i, got[i], xs[i])
		}
	}
}

func TestQueryRange(t *testing.T) {
	db, err := Open(t.TempDir(), dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	xs := sensorData(1200, 2)
	if err := db.Append("s", xs...); err != nil {
		t.Fatal(err)
	}
	// A range spanning a block boundary and part of the tail.
	got, err := db.Query("s", 500, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 600 {
		t.Fatalf("range query returned %d samples", len(got))
	}
	// Clamped and empty ranges.
	if got, _ := db.Query("s", -5, 3); len(got) != 3 {
		t.Fatalf("clamped range returned %d", len(got))
	}
	if got, _ := db.Query("s", 900, 900); got != nil {
		t.Fatal("empty range should return nil")
	}
	if got, _ := db.Query("s", 1100, 99999); len(got) != 100 {
		t.Fatal("over-long range should clamp to total")
	}
}

func TestQueryUnknownSeries(t *testing.T) {
	db, err := Open(t.TempDir(), dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("nope", 0, 10); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("expected ErrUnknownSeries, got %v", err)
	}
	if _, err := db.SeriesStats("nope"); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("expected ErrUnknownSeries, got %v", err)
	}
}

func TestReopenRestoresEverything(t *testing.T) {
	dir := t.TempDir()
	xs := sensorData(1300, 3)
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append("a", xs...); err != nil {
		t.Fatal(err)
	}
	// Flush first: it may compress the tail into a block (lossy), so the
	// reference snapshot must be taken from the flushed state.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("a", 0, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Query("a", 0, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopen lost samples: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d changed across reopen: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFlushPromotesLongTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 300 samples: below BlockSize but above the 4*Lags minimum.
	if err := db.Append("x", sensorData(300, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := db.SeriesStats("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 1 {
		t.Fatalf("long tail should become a block, got %d blocks (tail %d)", st.Blocks, st.TailLen)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tail") {
			t.Fatalf("tail file %s should be removed after promotion", e.Name())
		}
	}
}

func TestFlushKeepsShortTailVerbatim(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	short := []float64{1, 2, 3, 4, 5}
	if err := db.Append("y", short...); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Query("y", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range short {
		if got[i] != short[i] {
			t.Fatalf("verbatim tail corrupted at %d", i)
		}
	}
}

// TestFlushSkipsUnchangedTail: a Flush with no Append since the previous
// one leaves the verbatim tail file alone (same inode: atomicWrite would
// have renamed a new file over it), an Append makes the next Flush rewrite
// it, and a reopen recovers the samples either way.
func TestFlushSkipsUnchangedTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := sensorData(512+20, 8) // one full block plus a short tail
	if err := db.Append("z", data[:512+10]...); err != nil {
		t.Fatal(err)
	}
	tailStat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(db.tailPath("z", 512))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	first := tailStat()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, tailStat()) {
		t.Fatal("second Flush without an Append rewrote the tail file")
	}
	if err := db.Append("z", data[512+10:]...); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	second := tailStat()
	if os.SameFile(first, second) {
		t.Fatal("Flush after an Append did not rewrite the tail file")
	}
	want, err := db.Query("z", 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// A recovered tail is clean too: flushing it again writes nothing.
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(db2.tailPath("z", 512))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(second, fi) {
		t.Fatal("Flush after reopen rewrote the recovered tail file")
	}
	got, err := db2.Query("z", 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened store has %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d = %v after reopen, want %v", i, got[i], want[i])
		}
	}
	for i := 512; i < len(data); i++ {
		if got[i] != data[i] {
			t.Fatalf("tail sample %d = %v, want verbatim %v", i, got[i], data[i])
		}
	}
}

func TestMultipleSeries(t *testing.T) {
	db, err := Open(t.TempDir(), dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append("b", sensorData(600, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("a", sensorData(700, 6)...); err != nil {
		t.Fatal(err)
	}
	names := db.Series()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Series() = %v", names)
	}
}

func TestDiskFootprintSmallerThanRaw(t *testing.T) {
	db, err := Open(t.TempDir(), dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	if err := db.Append("big", sensorData(n, 7)...); err != nil {
		t.Fatal(err)
	}
	// DiskBytes covers durable blocks only; wait out the async workers.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := db.SeriesStats("big")
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(n * 8)
	if st.DiskBytes == 0 || st.DiskBytes >= raw/2 {
		t.Fatalf("disk %d bytes vs raw %d: compression ineffective", st.DiskBytes, raw)
	}
}

func TestCorruptBlockDetectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append("c", sensorData(600, 8)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the block file.
	blk := filepath.Join(dir, "c", "000000000000.blk")
	if err := os.WriteFile(blk, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, dbOptions()); err == nil {
		t.Fatal("expected error opening store with corrupt block")
	}
}
