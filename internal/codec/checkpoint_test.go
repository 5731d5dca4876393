package codec

import (
	"math"
	"testing"
)

func bitstreamCodecs() []Codec {
	return []Codec{Gorilla{}, Chimp{}, Elf{}}
}

// TestCheckpointedBlockLayout pins the on-disk format contract: the
// default interval emits a version-2 block with a sidecar, a negative
// interval emits a byte-identical version-1 block (what older builds
// wrote), and both decode to the same samples.
func TestCheckpointedBlockLayout(t *testing.T) {
	xs := sineSeries(600, 3)
	for _, c := range bitstreamCodecs() {
		cc := c.(CheckpointConfigurable)
		v2, err := EncodeBlock(c, xs)
		if err != nil {
			t.Fatal(err)
		}
		h, sidecar, payload, err := SplitBlock(v2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if h.Version != blockVersionSidecar || len(sidecar) == 0 {
			t.Fatalf("%s: default interval wrote header %+v with %d sidecar bytes", c.Name(), h, len(sidecar))
		}
		v1, err := EncodeBlock(cc.WithCheckpointInterval(-1), xs)
		if err != nil {
			t.Fatal(err)
		}
		h1, sidecar1, payload1, err := SplitBlock(v1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if h1.Version != blockVersionPlain || len(sidecar1) != 0 {
			t.Fatalf("%s: disabled checkpoints wrote header %+v with %d sidecar bytes", c.Name(), h1, len(sidecar1))
		}
		if string(payload) != string(payload1) {
			t.Fatalf("%s: checkpointing changed the compressed payload", c.Name())
		}
		for _, blk := range [][]byte{v2, v1} {
			dec, dh, err := DecodeBlock(blk)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if dh.N != len(xs) || len(dec) != len(xs) {
				t.Fatalf("%s: decoded %d of %d samples", c.Name(), len(dec), len(xs))
			}
			for i := range xs {
				if math.Float64bits(dec[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("%s: sample %d differs", c.Name(), i)
				}
			}
		}
	}
}

// TestDecodeRangeCheckpointedMatchesFullDecode is the codec-level
// differential: the checkpointed range decode of a framed block must be
// bit-identical to full-decode-then-slice, with and without a sidecar
// (a nil sidecar degrades to replay-from-front, still exact).
func TestDecodeRangeCheckpointedMatchesFullDecode(t *testing.T) {
	xs := sineSeries(1000, 9)
	for _, c := range bitstreamCodecs() {
		blk, err := EncodeBlock(c.(CheckpointConfigurable).WithCheckpointInterval(64), xs)
		if err != nil {
			t.Fatal(err)
		}
		_, sidecar, payload, err := SplitBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range [][]byte{sidecar, nil} {
			for _, r := range [][2]int{{0, 1000}, {0, 1}, {999, 1000}, {300, 301}, {128, 640}, {500, 500}} {
				lo, hi := r[0], r[1]
				got, bits, err := c.DecodeRange(payload, side, len(xs), lo, hi, nil)
				if err != nil {
					t.Fatalf("%s [%d,%d): %v", c.Name(), lo, hi, err)
				}
				if len(got) != hi-lo || (hi > lo && bits <= 0) {
					t.Fatalf("%s [%d,%d): %d values, %d bits", c.Name(), lo, hi, len(got), bits)
				}
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(xs[lo+i]) {
						t.Fatalf("%s sidecar=%v [%d,%d): sample %d differs", c.Name(), side != nil, lo, hi, lo+i)
					}
				}
			}
		}
	}
}

// TestDecodeWindowAggsCheckpointedMatchesFold compares the streaming
// window fold against materialize-then-fold over the same grid — the
// folds must agree bit-for-bit (same accumulation order).
func TestDecodeWindowAggsCheckpointedMatchesFold(t *testing.T) {
	xs := sineSeries(1000, 5)
	for _, c := range bitstreamCodecs() {
		blk, err := EncodeBlock(c.(CheckpointConfigurable).WithCheckpointInterval(64), xs)
		if err != nil {
			t.Fatal(err)
		}
		_, sidecar, payload, err := SplitBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ lo, hi, anchor, step int }{
			{0, 1000, 0, 100},
			{150, 900, 100, 64},
			{700, 1000, 0, 33},
			{512, 640, 512, 128},
		} {
			nw := (tc.hi-1-tc.anchor)/tc.step - (tc.lo-tc.anchor)/tc.step + 1
			got := make([]RangeAgg, nw)
			want := make([]RangeAgg, nw)
			for i := range got {
				got[i], want[i] = NewRangeAgg(), NewRangeAgg()
			}
			bits, err := c.DecodeWindowAggs(payload, sidecar, len(xs), tc.lo, tc.hi, tc.anchor, tc.step, got)
			if err != nil {
				t.Fatalf("%s %+v: %v", c.Name(), tc, err)
			}
			if bits <= 0 {
				t.Fatalf("%s %+v: %d bits traversed", c.Name(), tc, bits)
			}
			w0 := (tc.lo - tc.anchor) / tc.step
			for i := tc.lo; i < tc.hi; i++ {
				a := &want[(i-tc.anchor)/tc.step-w0]
				v := xs[i]
				a.Sum += v
				if v < a.Min {
					a.Min = v
				}
				if v > a.Max {
					a.Max = v
				}
				a.Count++
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %+v: window %d: %+v != %+v", c.Name(), tc, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCheckpointedDecodeRejectsCorruptSidecar: a mangled sidecar must
// surface ErrBadBlock, never a panic or silently wrong samples.
func TestCheckpointedDecodeRejectsCorruptSidecar(t *testing.T) {
	xs := sineSeries(500, 1)
	for _, c := range bitstreamCodecs() {
		blk, err := EncodeBlock(c.(CheckpointConfigurable).WithCheckpointInterval(32), xs)
		if err != nil {
			t.Fatal(err)
		}
		_, sidecar, payload, err := SplitBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), sidecar...)
		bad[0] = 0 // interval 0 is invalid
		if _, _, err := c.DecodeRange(payload, bad, len(xs), 10, 20, nil); err == nil {
			t.Fatalf("%s: corrupt sidecar accepted by DecodeRange", c.Name())
		}
		aggs := []RangeAgg{NewRangeAgg()}
		if _, err := c.DecodeWindowAggs(payload, bad, len(xs), 10, 20, 10, 10, aggs); err == nil {
			t.Fatalf("%s: corrupt sidecar accepted by DecodeWindowAggs", c.Name())
		}
		// The full decode never consults the sidecar, so a corrupt one must
		// not break DecodeBlock — it only guards the seek path.
		if dec, _, err := DecodeBlock(blk); err != nil || len(dec) != len(xs) {
			t.Fatalf("%s: full decode of a checkpointed block failed: %v", c.Name(), err)
		}
	}
}

// TestMergeBlocksRegeneratesSidecar: compaction merges of bit-stream
// blocks must emit a fresh sidecar describing the merged stream, and the
// checkpointed range decode of the merged block must match the
// concatenated source decodes.
func TestMergeBlocksRegeneratesSidecar(t *testing.T) {
	for _, c := range bitstreamCodecs() {
		xs := sineSeries(700, 11)
		var payloads [][]byte
		var ns []int
		for _, cut := range [][2]int{{0, 200}, {200, 450}, {450, 700}} {
			p, err := c.Encode(xs[cut[0]:cut[1]])
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, p)
			ns = append(ns, cut[1]-cut[0])
		}
		merged, err := MergeBlocks(c, payloads, ns)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		h, sidecar, payload, err := SplitBlock(merged)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if h.Version != blockVersionSidecar || len(sidecar) == 0 {
			t.Fatalf("%s: merged block lost its sidecar: %+v", c.Name(), h)
		}
		if h.N != len(xs) {
			t.Fatalf("%s: merged N = %d, want %d", c.Name(), h.N, len(xs))
		}
		got, bits, err := c.DecodeRange(payload, sidecar, h.N, 600, 700, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(xs[600+i]) {
				t.Fatalf("%s: merged sample %d differs", c.Name(), 600+i)
			}
		}
		full, err := c.Encode(xs)
		if err != nil {
			t.Fatal(err)
		}
		if fullBits := len(full) * 8; bits >= fullBits/2 {
			t.Fatalf("%s: tail read of merged block traversed %d of ~%d bits — sidecar not regenerated for the merged stream", c.Name(), bits, fullBits)
		}
	}
}

// TestConfigureCheckpointInterval pins the knob plumbing helper: it
// reconfigures checkpoint-capable codecs, leaves others untouched, and
// k == 0 is a no-op.
func TestConfigureCheckpointInterval(t *testing.T) {
	g := ConfigureCheckpointInterval(Gorilla{}, 32)
	if g.(Gorilla).Interval != 32 {
		t.Fatalf("interval not applied: %+v", g)
	}
	if c := ConfigureCheckpointInterval(Gorilla{Interval: 16}, 0); c.(Gorilla).Interval != 16 {
		t.Fatalf("k=0 should leave the codec unchanged: %+v", c)
	}
	p := PMC{RelBound: 0.5}
	if c := ConfigureCheckpointInterval(p, 32); c != Codec(p) {
		t.Fatalf("non-checkpoint codec changed: %+v", c)
	}
}
