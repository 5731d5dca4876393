package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestCAMEOStreamByteIdentical proves the streaming satellite invariant at
// the block level: a block compressed through the stream session, in any
// advance quantum, serializes to exactly the bytes EncodeBlockRecon
// produces, with the same header offset and reconstruction — so every
// existing reader (cursor, DecodeRange, QueryAgg) decodes streamed blocks
// unchanged.
func TestCAMEOStreamByteIdentical(t *testing.T) {
	c := NewCAMEO(core.Options{Lags: 24, Epsilon: 0.05})
	var se StreamEncoder = c // compile-time capability check
	bs, err := se.NewBlockStream()
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()

	r := rand.New(rand.NewSource(4))
	for blk := 0; blk < 3; blk++ { // session reuse across blocks
		xs := make([]float64, 2048)
		for i := range xs {
			xs[i] = math.Sin(2*math.Pi*float64(i)/96) + 0.3*r.NormFloat64()
		}
		want, wantOff, wantRecon, err := EncodeBlockRecon(c, xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, quantum := range []int{97, 1 << 30} {
			if err := bs.Begin(xs); err != nil {
				t.Fatal(err)
			}
			if _, _, err := bs.Payload(); err == nil {
				t.Fatal("Payload succeeded before the block finished")
			}
			for {
				if _, done := bs.Advance(quantum); done {
					break
				}
			}
			got, gotOff, gotRecon, err := EncodeStreamBlock(c, bs, len(xs))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("blk=%d q=%d: streamed block bytes differ from batch (%d vs %d bytes)", blk, quantum, len(got), len(want))
			}
			if gotOff != wantOff {
				t.Fatalf("blk=%d q=%d: hdrOff %d != %d", blk, quantum, gotOff, wantOff)
			}
			if len(gotRecon) != len(wantRecon) {
				t.Fatalf("blk=%d q=%d: recon length %d != %d", blk, quantum, len(gotRecon), len(wantRecon))
			}
			for i := range wantRecon {
				if gotRecon[i] != wantRecon[i] {
					t.Fatalf("blk=%d q=%d: recon[%d] = %v != %v", blk, quantum, i, gotRecon[i], wantRecon[i])
				}
			}
			// And the standard reader path accepts it.
			hdr, off, err := ParseBlockHeader(got)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.N != len(xs) || off != gotOff {
				t.Fatalf("blk=%d q=%d: header (n=%d off=%d) want (n=%d off=%d)", blk, quantum, hdr.N, off, len(xs), gotOff)
			}
			dec, err := c.Decode(got[off:], hdr.N)
			if err != nil {
				t.Fatal(err)
			}
			for i := range dec {
				if dec[i] != wantRecon[i] {
					t.Fatalf("blk=%d q=%d: decode[%d] = %v != %v", blk, quantum, i, dec[i], wantRecon[i])
				}
			}
		}
	}
}

// TestCAMEOStreamNeedsOptions pins the zero-value guard.
func TestCAMEOStreamNeedsOptions(t *testing.T) {
	var c CAMEO
	if _, err := c.NewBlockStream(); err == nil {
		t.Fatal("zero-value CAMEO produced a block stream")
	}
}
