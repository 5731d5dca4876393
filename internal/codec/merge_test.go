package codec

import (
	"errors"
	"math/rand"
	"testing"
)

// encodeBlocks compresses the chunks of xs at the given cut points and
// returns per-block payloads, sample counts, and the concatenation of the
// per-block reconstructions (what queries observed before a merge).
func encodeBlocks(t *testing.T, c Codec, xs []float64, cuts []int) (payloads [][]byte, ns []int, recon []float64) {
	t.Helper()
	prev := 0
	for _, cut := range append(cuts, len(xs)) {
		block := xs[prev:cut]
		prev = cut
		payload, err := c.Encode(block)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.Name(), err)
		}
		dense, err := c.Decode(payload, len(block))
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.Name(), err)
		}
		payloads = append(payloads, payload)
		ns = append(ns, len(block))
		recon = append(recon, dense...)
	}
	return payloads, ns, recon
}

// TestMergeBlocksBitIdentical is the merge contract for every builtin
// codec: decoding a merged block yields exactly the concatenation of the
// source blocks' reconstructions, so a compaction can never change what a
// query returns.
func TestMergeBlocksBitIdentical(t *testing.T) {
	for _, c := range encoders() {
		t.Run(c.Name(), func(t *testing.T) {
			xs := sineSeries(700, 42)
			payloads, ns, want := encodeBlocks(t, c, xs, []int{150, 250, 500})
			data, err := MergeBlocks(c, payloads, ns)
			if err != nil {
				t.Fatalf("MergeBlocks: %v", err)
			}
			got, hdr, err := DecodeBlock(data)
			if err != nil {
				t.Fatalf("DecodeBlock(merged): %v", err)
			}
			if hdr.CodecID != c.ID() || hdr.N != len(xs) {
				t.Fatalf("merged header = %+v, want codec %d, n %d", hdr, c.ID(), len(xs))
			}
			if len(got) != len(want) {
				t.Fatalf("merged decode has %d samples, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: merged sample %d = %v, per-block reconstruction %v", c.Name(), i, got[i], want[i])
				}
			}
		})
	}
}

// TestMergeBlocksRandomCuts fuzzes the seam handling: random block
// boundaries (including tiny blocks that CAMEO stores verbatim-ish and
// segment codecs cover with one record) must still merge bit-identically.
func TestMergeBlocksRandomCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range encoders() {
		for round := 0; round < 10; round++ {
			n := 50 + rng.Intn(400)
			xs := sineSeries(n, int64(round))
			var cuts []int
			for pos := 1 + rng.Intn(60); pos < n; pos += 1 + rng.Intn(60) {
				cuts = append(cuts, pos)
			}
			if len(cuts) == 0 {
				cuts = []int{n / 2}
			}
			payloads, ns, want := encodeBlocks(t, c, xs, cuts)
			data, err := MergeBlocks(c, payloads, ns)
			if err != nil {
				t.Fatalf("%s round %d: MergeBlocks: %v", c.Name(), round, err)
			}
			got, _, err := DecodeBlock(data)
			if err != nil {
				t.Fatalf("%s round %d: DecodeBlock: %v", c.Name(), round, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s round %d (cuts %v): sample %d = %v, want %v", c.Name(), round, cuts, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeBlocksRefusesUnmergeableLossy(t *testing.T) {
	// A lossy codec without BlockMerger must be refused rather than
	// silently re-fit (embedding PMC would re-expose its merge, so the
	// test codec forwards only the Codec methods).
	c := lossyNoMerge{inner: PMC{}}
	xs := sineSeries(200, 1)
	payloads, ns, _ := encodeBlocks(t, c, xs, []int{100})
	_, err := MergeBlocks(c, payloads, ns)
	if !errors.Is(err, ErrCannotMerge) {
		t.Fatalf("MergeBlocks on unmergeable lossy codec: err = %v, want ErrCannotMerge", err)
	}
}

type lossyNoMerge struct{ inner PMC }

func (c lossyNoMerge) Name() string                        { return "nomerge" }
func (c lossyNoMerge) ID() uint8                           { return 200 }
func (c lossyNoMerge) Lossy() bool                         { return true }
func (c lossyNoMerge) Encode(xs []float64) ([]byte, error) { return c.inner.Encode(xs) }
func (c lossyNoMerge) Decode(data []byte, n int) ([]float64, error) {
	return c.inner.Decode(data, n)
}
func (c lossyNoMerge) DecodeRange(data, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	return c.inner.DecodeRange(data, sidecar, n, lo, hi, dst)
}
func (c lossyNoMerge) DecodeWindowAggs(data, sidecar []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	return c.inner.DecodeWindowAggs(data, sidecar, n, lo, hi, anchor, step, aggs)
}

func TestMergeBlocksRejectsBadArgs(t *testing.T) {
	c := Gorilla{}
	payload, err := c.Encode([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeBlocks(c, [][]byte{payload}, []int{3}); err == nil {
		t.Fatal("MergeBlocks accepted a single block")
	}
	if _, err := MergeBlocks(c, [][]byte{payload, payload}, []int{3}); err == nil {
		t.Fatal("MergeBlocks accepted mismatched payload/count lists")
	}
	if _, err := MergeBlocks(c, [][]byte{payload, payload}, []int{3, 0}); err == nil {
		t.Fatal("MergeBlocks accepted an empty block")
	}
}
