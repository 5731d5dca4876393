package codec

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
)

// fuzzSeed produces a few valid encodings so the fuzzers start from
// structurally interesting corpora.
func fuzzSeed(f *testing.F, c Codec) {
	f.Helper()
	for _, xs := range [][]float64{
		nil,
		{1.5},
		{1, 1, 1, 1, 1},
		{20.5, 21.25, 19.75, 20.0, 22.5, 18.25, 20.5, 21.0},
	} {
		if data, err := EncodeBlock(c, xs); err == nil {
			f.Add(data)
		}
	}
}

// FuzzParseBlockHeader asserts header parsing never panics and that a
// parse-accepted header keeps its promises: sane N and sidecar length, the
// header fields themselves inside the buffer (ParseBlockHeader is prefix-
// tolerant, so a version-2 offset may point past a buffer that lacks the
// claimed sidecar — SplitBlock must then refuse instead of slicing wild).
func FuzzParseBlockHeader(f *testing.F) {
	fuzzSeed(f, Gorilla{})
	fuzzSeed(f, Gorilla{Interval: 2}) // sidecar-bearing version-2 seeds
	f.Add([]byte{blockMagic0, blockMagic1, 1, 1, 0x80})
	f.Add([]byte{blockMagic0, blockMagic1, 2, 2, 0x08, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, off, err := ParseBlockHeader(data)
		if err != nil {
			return
		}
		if h.N < 0 || h.N > MaxBlockSamples {
			t.Fatalf("accepted absurd N %d", h.N)
		}
		if h.SidecarLen < 0 || h.SidecarLen > MaxSidecarBytes {
			t.Fatalf("accepted absurd sidecar length %d", h.SidecarLen)
		}
		if off < 5 || off-h.SidecarLen > len(data) {
			t.Fatalf("header end %d outside data of %d bytes", off-h.SidecarLen, len(data))
		}
		sh, sidecar, payload, err := SplitBlock(data)
		if err != nil {
			if off <= len(data) {
				t.Fatalf("SplitBlock refused a fully present block: %v", err)
			}
			return
		}
		if sh != h || len(sidecar) != h.SidecarLen || len(payload) != len(data)-off {
			t.Fatalf("SplitBlock %+v (%d sidecar, %d payload) disagrees with ParseBlockHeader %+v (off %d)",
				sh, len(sidecar), len(payload), h, off)
		}
	})
}

// FuzzDecodeBlock asserts the full header+registry+payload decode path
// never panics on arbitrary bytes, and that success implies the promised
// sample count.
func FuzzDecodeBlock(f *testing.F) {
	for _, c := range []Codec{Gorilla{}, Chimp{}, Elf{}, PMC{}, Swing{}, SimPiece{}} {
		fuzzSeed(f, c)
	}
	if data, err := EncodeBlock(NewCAMEO(testOptions()), seedSeries()); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, h, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if len(xs) != h.N {
			t.Fatalf("decoded %d samples, header says %d", len(xs), h.N)
		}
	})
}

// FuzzCodecDecodersDirect drives every registered codec's Decode with
// arbitrary payloads and sample counts: malformed input must error, never
// panic or over-allocate into an OOM.
func FuzzCodecDecodersDirect(f *testing.F) {
	for _, c := range []Codec{Gorilla{}, PMC{}, Swing{}} {
		if payload, err := c.Encode(seedSeries()); err == nil {
			f.Add(payload, uint16(len(seedSeries())), c.ID())
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint16, id uint8) {
		c, err := ByID(id)
		if err != nil {
			return
		}
		xs, err := c.Decode(payload, int(n))
		if err == nil && len(xs) != int(n) {
			t.Fatalf("%s: decoded %d samples, promised %d", c.Name(), len(xs), n)
		}
	})
}

// FuzzBlockRange drives every codec's partial-read API — DecodeRange and
// DecodeWindowAggs, which hostile block files reach on every cold partial
// read — with arbitrary payloads, sidecars, sample counts, ranges and
// window grids. No input may panic; a successful DecodeRange returns
// exactly hi-lo samples and a successful DecodeWindowAggs counts exactly
// hi-lo. On an unmutated seed block both must succeed and match Decode:
// values bit-identical, per-window counts, min and max exact.
func FuzzBlockRange(f *testing.F) {
	xs := seedSeries()
	type block struct {
		id               uint8
		payload, sidecar []byte
	}
	var seeds []block
	for _, c := range []Codec{
		NewCAMEO(testOptions()),
		Gorilla{Interval: 8}, Gorilla{Interval: -1}, // with and without a sidecar
		Chimp{Interval: 8}, Elf{Interval: 8},
		PMC{}, Swing{}, SimPiece{},
	} {
		blk, err := EncodeBlock(c, xs)
		if err != nil {
			f.Fatalf("%s: %v", c.Name(), err)
		}
		_, sidecar, payload, err := SplitBlock(blk)
		if err != nil {
			f.Fatalf("%s: %v", c.Name(), err)
		}
		seeds = append(seeds, block{c.ID(), payload, sidecar})
		f.Add(c.ID(), payload, sidecar, uint16(len(xs)), int32(5), int32(41), int32(3), uint16(7))
		f.Add(c.ID(), payload, sidecar, uint16(len(xs)), int32(0), int32(len(xs)), int32(0), uint16(len(xs)))
	}
	f.Fuzz(func(t *testing.T, id uint8, payload, sidecar []byte, n16 uint16, lo32, hi32, anchorBack int32, step16 uint16) {
		c, err := ByID(id)
		if err != nil {
			return
		}
		n, lo, hi, step := int(n16), int(lo32), int(hi32), int(step16)
		anchor := lo - int(anchorBack)
		valid := 0 <= lo && lo <= hi && hi <= n
		unmutated := false
		for _, s := range seeds {
			if s.id == id && n == len(xs) && bytes.Equal(s.payload, payload) && bytes.Equal(s.sidecar, sidecar) {
				unmutated = true
			}
		}
		var full []float64
		if unmutated {
			if full, err = c.Decode(payload, n); err != nil {
				t.Fatalf("%s: seed block does not decode: %v", c.Name(), err)
			}
		}

		got, _, err := c.DecodeRange(payload, sidecar, n, lo, hi, nil)
		switch {
		case err == nil && (!valid || len(got) != hi-lo):
			t.Fatalf("%s: DecodeRange(%d,%d) of %d samples returned %d values", c.Name(), lo, hi, n, len(got))
		case unmutated && valid && err != nil:
			t.Fatalf("%s: DecodeRange(%d,%d) of a seed block: %v", c.Name(), lo, hi, err)
		case unmutated && valid:
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(full[lo+i]) {
					t.Fatalf("%s: DecodeRange(%d,%d)[%d] = %v, Decode has %v", c.Name(), lo, hi, i, v, full[lo+i])
				}
			}
		}

		// Size the accumulators for a well-formed grid; anything else gets
		// one accumulator and must fail validation, not index past it.
		grid := valid && step >= 1 && anchor <= lo
		aggs := []RangeAgg{NewRangeAgg()}
		if grid && hi > lo {
			aggs = make([]RangeAgg, (hi-1-anchor)/step-(lo-anchor)/step+1)
			for i := range aggs {
				aggs[i] = NewRangeAgg()
			}
		}
		_, err = c.DecodeWindowAggs(payload, sidecar, n, lo, hi, anchor, step, aggs)
		if err != nil {
			if unmutated && grid {
				t.Fatalf("%s: DecodeWindowAggs(%d,%d,%d,%d) of a seed block: %v", c.Name(), lo, hi, anchor, step, err)
			}
			return
		}
		if !grid {
			t.Fatalf("%s: DecodeWindowAggs accepted range [%d,%d) of %d, anchor %d, step %d", c.Name(), lo, hi, n, anchor, step)
		}
		count := 0
		for _, a := range aggs {
			count += a.Count
		}
		if count != hi-lo {
			t.Fatalf("%s: DecodeWindowAggs(%d,%d) counted %d samples", c.Name(), lo, hi, count)
		}
		if !unmutated {
			return
		}
		k0 := (lo - anchor) / step
		for i, a := range aggs {
			want := NewRangeAgg()
			k := k0 + i
			want.Add(full[max(lo, anchor+k*step):min(hi, anchor+(k+1)*step)])
			if a.Count != want.Count || (a.Count > 0 && (a.Min != want.Min || a.Max != want.Max)) {
				t.Fatalf("%s: window %d of [%d,%d) anchor %d step %d: %+v, want %+v", c.Name(), k, lo, hi, anchor, step, a, want)
			}
		}
	})
}

func testOptions() core.Options {
	return core.Options{Lags: 8, Epsilon: 0.1}
}

func seedSeries() []float64 {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 10 + 3*math.Sin(float64(i)/5)
	}
	return xs
}
