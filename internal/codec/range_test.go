package codec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// rangeCodecs returns every registered codec in an encode-capable
// configuration, for the range/aggregate differential tests.
func rangeCodecs() []Codec {
	return []Codec{
		NewCAMEO(core.Options{Lags: 12, Epsilon: 0.05}),
		Gorilla{},
		Chimp{},
		Elf{},
		PMC{},
		Swing{},
		SimPiece{},
	}
}

func rangeSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 20 + 8*math.Sin(2*math.Pi*float64(i)/48) + 0.4*rng.NormFloat64()
	}
	return xs
}

// rangeAgg aggregates samples [lo, hi) of a sidecar-less payload as one
// DecodeWindowAggs window.
func rangeAgg(c Codec, payload []byte, n, lo, hi int) (RangeAgg, error) {
	agg := []RangeAgg{NewRangeAgg()}
	_, err := c.DecodeWindowAggs(payload, nil, n, lo, hi, lo, max(hi-lo, 1), agg)
	return agg[0], err
}

// TestDecodeRangeMatchesDecode pins DecodeRange — piecewise, or a
// bit-stream replay from the front — to the corresponding slice of the
// full decode, bit for bit, across every codec and a sweep of ranges
// including the empty and single-sample edges.
func TestDecodeRangeMatchesDecode(t *testing.T) {
	xs := rangeSeries(600)
	n := len(xs)
	ranges := [][2]int{
		{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}, {1, n - 1},
		{17, 18}, {0, 300}, {300, n}, {123, 457}, {599, 600}, {250, 250},
	}
	for _, c := range rangeCodecs() {
		payload, err := c.Encode(xs)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		full, err := c.Decode(payload, n)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			got, _, err := c.DecodeRange(payload, nil, n, lo, hi, nil)
			if err != nil {
				t.Fatalf("%s: DecodeRange(%d,%d): %v", c.Name(), lo, hi, err)
			}
			if len(got) != hi-lo {
				t.Fatalf("%s: DecodeRange(%d,%d) returned %d samples", c.Name(), lo, hi, len(got))
			}
			for i, v := range got {
				if v != full[lo+i] {
					t.Fatalf("%s (lossy=%v): DecodeRange(%d,%d)[%d] = %v, Decode slice has %v",
						c.Name(), c.Lossy(), lo, hi, i, v, full[lo+i])
				}
			}
		}
		// dst append semantics: existing contents stay in place.
		dst := []float64{-1, -2}
		got, _, err := c.DecodeRange(payload, nil, n, 5, 10, dst)
		if err != nil {
			t.Fatalf("%s: DecodeRange with dst: %v", c.Name(), err)
		}
		if len(got) != 7 || got[0] != -1 || got[1] != -2 || got[2] != full[5] {
			t.Fatalf("%s: DecodeRange must append to dst, got %v", c.Name(), got[:3])
		}
	}
}

// TestSegmentCodecsAreRangeDecoders pins the premise of the store's one
// read-path policy, "a lossless block without a sidecar is decoded whole
// and cached": the lossy codecs are exactly the piecewise ones, which
// never write a sidecar and range-decode from the payload alone (0 bits
// traversed), while the lossless codecs are exactly the bit-stream ones,
// which cannot seek without a sidecar, write one by default, drop it when
// checkpoints are disabled, and report the bits they replay.
func TestSegmentCodecsAreRangeDecoders(t *testing.T) {
	xs := rangeSeries(600)
	for _, c := range rangeCodecs() {
		_, ce := c.(CheckpointEncoder)
		_, cc := c.(CheckpointConfigurable)
		wantCkpt := !c.Lossy() // exactly the bit-stream codecs here
		if ce != wantCkpt || cc != wantCkpt {
			t.Errorf("%s: CheckpointEncoder=%v CheckpointConfigurable=%v, want both %v",
				c.Name(), ce, cc, wantCkpt)
		}
		blk, err := EncodeBlock(c, xs)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		_, sidecar, payload, err := SplitBlock(blk)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if (len(sidecar) > 0) != wantCkpt {
			t.Errorf("%s: default block carries %d sidecar bytes, want sidecar=%v", c.Name(), len(sidecar), wantCkpt)
		}
		_, bits, err := c.DecodeRange(payload, sidecar, len(xs), 300, 301, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if (bits > 0) != wantCkpt {
			t.Errorf("%s: DecodeRange traversed %d bits, want bits>0 = %v", c.Name(), bits, wantCkpt)
		}
		if wantCkpt {
			plain, err := EncodeBlock(ConfigureCheckpointInterval(c, -1), xs)
			if err != nil {
				t.Fatal(err)
			}
			if _, sc, _, err := SplitBlock(plain); err != nil || len(sc) != 0 {
				t.Errorf("%s: checkpoints disabled still wrote %d sidecar bytes (err %v)", c.Name(), len(sc), err)
			}
		}
	}
}

// TestDecodeRangeAgg checks the pushdown aggregates against folding the
// materialized range: count/min/max exactly (the closed forms evaluate the
// same endpoint expressions decoding uses), sum within a small relative
// tolerance (arithmetic-series order differs from left-to-right).
func TestDecodeRangeAgg(t *testing.T) {
	xs := rangeSeries(600)
	n := len(xs)
	ranges := [][2]int{{0, n}, {0, 1}, {n - 1, n}, {123, 457}, {7, 7}, {0, 48}, {571, 600}}
	for _, c := range rangeCodecs() {
		payload, err := c.Encode(xs)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		full, err := c.Decode(payload, n)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			got, err := rangeAgg(c, payload, n, lo, hi)
			if err != nil {
				t.Fatalf("%s: one-window DecodeWindowAggs(%d,%d): %v", c.Name(), lo, hi, err)
			}
			want := NewRangeAgg()
			want.Add(full[lo:hi])
			if got.Count != want.Count {
				t.Fatalf("%s: agg(%d,%d) count %d, want %d", c.Name(), lo, hi, got.Count, want.Count)
			}
			if got.Count == 0 {
				continue
			}
			if got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("%s: agg(%d,%d) min/max %v/%v, want %v/%v",
					c.Name(), lo, hi, got.Min, got.Max, want.Min, want.Max)
			}
			if tol := 1e-9 * (math.Abs(want.Sum) + 1); math.Abs(got.Sum-want.Sum) > tol {
				t.Fatalf("%s: agg(%d,%d) sum %v, want %v", c.Name(), lo, hi, got.Sum, want.Sum)
			}
		}
	}
}

// TestDecodeWindowAggs pins the one-pass windowed pushdown against
// aggregating each window separately, on every codec, across aligned and
// unaligned grids (anchors before the fold range, partial first and last
// windows) — the access pattern QueryAgg issues per block.
func TestDecodeWindowAggs(t *testing.T) {
	xs := rangeSeries(600)
	n := len(xs)
	cases := []struct{ lo, hi, anchor, step int }{
		{0, n, 0, 50},
		{0, n, 0, n},        // one window covering everything
		{0, n, 0, 7},        // partial last window
		{123, 457, 100, 60}, /* anchor before lo: partial first window */
		{123, 457, 123, 1},  // one-sample windows
		{37, 41, 0, 100},    // range inside one window
	}
	for _, c := range rangeCodecs() {
		payload, err := c.Encode(xs)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		for _, tc := range cases {
			k0 := (tc.lo - tc.anchor) / tc.step
			kEnd := (tc.hi - 1 - tc.anchor) / tc.step
			aggs := make([]RangeAgg, kEnd-k0+1)
			for i := range aggs {
				aggs[i] = NewRangeAgg()
			}
			if _, err := c.DecodeWindowAggs(payload, nil, n, tc.lo, tc.hi, tc.anchor, tc.step, aggs); err != nil {
				t.Fatalf("%s: DecodeWindowAggs(%+v): %v", c.Name(), tc, err)
			}
			for i := range aggs {
				k := k0 + i
				wlo := max(tc.lo, tc.anchor+k*tc.step)
				whi := min(tc.hi, tc.anchor+(k+1)*tc.step)
				want, err := rangeAgg(c, payload, n, wlo, whi)
				if err != nil {
					t.Fatal(err)
				}
				got := aggs[i]
				if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
					t.Fatalf("%s: window %d of %+v: got %+v, want %+v", c.Name(), k, tc, got, want)
				}
				if math.Abs(got.Sum-want.Sum) > 1e-9*(math.Abs(want.Sum)+1) {
					t.Fatalf("%s: window %d sum %v, want %v", c.Name(), k, got.Sum, want.Sum)
				}
			}
		}
		// Validation: short accumulator slices and bad grids are rejected.
		one := []RangeAgg{NewRangeAgg()}
		if _, err := c.DecodeWindowAggs(payload, nil, n, 0, n, 0, 50, one); err == nil {
			t.Errorf("%s: accepted too few window accumulators", c.Name())
		}
		if _, err := c.DecodeWindowAggs(payload, nil, n, 10, 20, 15, 5, one); err == nil {
			t.Errorf("%s: accepted an anchor beyond the range start", c.Name())
		}
		if _, err := c.DecodeWindowAggs(payload, nil, n, 0, 10, 0, 0, one); err == nil {
			t.Errorf("%s: accepted step 0", c.Name())
		}
	}
}

// TestDecodeRangeBadBounds rejects out-of-range requests on every codec.
func TestDecodeRangeBadBounds(t *testing.T) {
	xs := rangeSeries(100)
	for _, c := range rangeCodecs() {
		payload, err := c.Encode(xs)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		for _, r := range [][2]int{{-1, 10}, {5, 4}, {0, 101}, {101, 101}} {
			if _, _, err := c.DecodeRange(payload, nil, len(xs), r[0], r[1], nil); err == nil {
				t.Errorf("%s: DecodeRange(%d,%d) accepted bad bounds", c.Name(), r[0], r[1])
			}
			if _, err := rangeAgg(c, payload, len(xs), r[0], r[1]); err == nil {
				t.Errorf("%s: one-window DecodeWindowAggs(%d,%d) accepted bad bounds", c.Name(), r[0], r[1])
			}
		}
	}
}

// TestRangeAggMerge checks that merging partial aggregates equals
// aggregating the concatenation.
func TestRangeAggMerge(t *testing.T) {
	xs := rangeSeries(200)
	whole := NewRangeAgg()
	whole.Add(xs)
	split := NewRangeAgg()
	for _, cut := range [][2]int{{0, 13}, {13, 13}, {13, 150}, {150, 200}} {
		part := NewRangeAgg()
		part.Add(xs[cut[0]:cut[1]])
		split.Merge(part)
	}
	if split.Count != whole.Count || split.Min != whole.Min || split.Max != whole.Max {
		t.Fatalf("merge mismatch: %+v vs %+v", split, whole)
	}
	if math.Abs(split.Sum-whole.Sum) > 1e-9*(math.Abs(whole.Sum)+1) {
		t.Fatalf("merge sum %v, want %v", split.Sum, whole.Sum)
	}
	empty := NewRangeAgg()
	if empty.Min != math.Inf(1) || empty.Max != math.Inf(-1) || empty.Count != 0 {
		t.Fatalf("NewRangeAgg not the identity: %+v", empty)
	}
}

// TestCAMEODecodeRangeConstantAndSparse exercises CAMEO range decoding on
// the hold regions (before the first and after the last retained point)
// that a generic mid-block range misses.
func TestCAMEODecodeRangeConstantAndSparse(t *testing.T) {
	c := NewCAMEO(core.Options{Lags: 4, Epsilon: 0.5})
	// A constant series compresses to very few points with long holds.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 42.5
	}
	payload, err := c.Encode(xs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Decode(payload, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 3}, {197, 200}, {0, 200}, {50, 150}} {
		got, _, err := c.DecodeRange(payload, nil, len(xs), r[0], r[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != full[r[0]+i] {
				t.Fatalf("range (%d,%d)[%d] = %v, want %v", r[0], r[1], i, v, full[r[0]+i])
			}
		}
		agg, err := rangeAgg(c, payload, len(xs), r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if agg.Count != r[1]-r[0] || agg.Min != 42.5 || agg.Max != 42.5 {
			t.Fatalf("agg(%d,%d) = %+v", r[0], r[1], agg)
		}
	}
}
