package cameo

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
)

// Codec is a pluggable block compressor: it turns a dense block of float64
// samples into bytes and back. The Store compresses every block through
// one, selected via StoreOptions.Codec; the constructors below cover every
// compressor the package implements. Lossless codecs (Gorilla, Chimp, Elf)
// reproduce appended values bit-exactly — durability-grade storage — while
// lossy codecs (CAMEO, PMC, Swing, Sim-Piece) trade fidelity for much
// higher compression: CAMEO bounds the deviation of a downstream statistic
// (ACF/PACF), the segment codecs bound pointwise error. The Lossy() flag
// distinguishes the two at runtime.
type Codec = codec.Codec

// BlockHeader describes a decoded block: format version, codec ID, and
// sample count (see DecodeBlock).
type BlockHeader = codec.BlockHeader

// CodecCAMEO returns the autocorrelation-preserving lossy codec, the
// Store's default (opt as for Compress: Lags and Epsilon / TargetRatio
// required).
func CodecCAMEO(opt Options) Codec { return codec.NewCAMEO(core.Options(opt)) }

// CodecGorilla returns the lossless Facebook Gorilla XOR codec. Like all
// bit-stream codecs it writes a checkpoint sidecar (one mark every
// StoreOptions.CheckpointInterval samples, default 128) so partial block
// reads seek instead of replaying the whole block.
func CodecGorilla() Codec { return codec.Gorilla{} }

// CodecChimp returns the lossless Chimp XOR codec (checkpointed like
// CodecGorilla).
func CodecChimp() Codec { return codec.Chimp{} }

// CodecELF returns the lossless Elf erase-based XOR codec (strongest on
// short-decimal sensor readings; checkpointed like CodecGorilla).
func CodecELF() Codec { return codec.Elf{} }

// CodecPMC returns the Poor Man's Compression codec: piecewise-constant,
// lossy with per-value error at most relBound times each block's value
// range (0 selects the 1% default).
func CodecPMC(relBound float64) Codec { return codec.PMC{RelBound: relBound} }

// CodecSwing returns the Swing-filter codec: piecewise-linear, lossy with
// per-value error at most relBound times each block's value range (0
// selects the 1% default).
func CodecSwing(relBound float64) Codec { return codec.Swing{RelBound: relBound} }

// CodecSimPiece returns the Sim-Piece codec: piecewise-linear with merged
// shared slopes, lossy with per-value error at most relBound times each
// block's value range (0 selects the 1% default).
func CodecSimPiece(relBound float64) Codec { return codec.SimPiece{RelBound: relBound} }

// CodecByName resolves a codec by its registry name ("cameo", "gorilla",
// "chimp", "elf", "pmc", "swing", "simpiece") with default parameters.
// Note the default cameo instance can only decode — CAMEO needs
// compression options to encode, so use CodecCAMEO for writing.
func CodecByName(name string) (Codec, error) { return codec.ByName(name) }

// CodecNames lists the registered codec names, sorted.
func CodecNames() []string { return codec.Names() }

// CodecByID resolves a block header's codec ID to the registered codec.
func CodecByID(id uint8) (Codec, error) { return codec.ByID(id) }

// IsBlockFormat reports whether data begins with the block-format magic
// (see EncodeBlock).
func IsBlockFormat(data []byte) bool { return codec.IsBlockFormat(data) }

// EncodeBlock compresses one dense block with c and prepends the
// self-describing block header (magic, format version, codec ID, sample
// count) — the same framing the Store persists, so the output decodes with
// DecodeBlock on any build that registers the codec.
func EncodeBlock(c Codec, xs []float64) ([]byte, error) {
	return codec.EncodeBlock(c, xs)
}

// DecodeBlock parses a block produced by EncodeBlock (or a Store block
// file) and decodes it with the codec named by its header.
func DecodeBlock(data []byte) ([]float64, BlockHeader, error) {
	return codec.DecodeBlock(data)
}

// RangeAgg summarizes a sample range without materializing it: Sum, Min,
// Max, and Count (mean is Sum/Count). Returned by DecodeBlockAgg and used
// internally by Store.QueryAgg's codec pushdown.
type RangeAgg = codec.RangeAgg

// parseBlockPayload is the shared preamble of the block range/aggregate
// helpers: parse the self-describing header, resolve the codec, clamp the
// requested bounds to the block, and split off the checkpoint sidecar
// when the block carries one (nil otherwise). A clamped-empty range
// reports lo == hi.
func parseBlockPayload(data []byte, lo, hi int) (Codec, BlockHeader, []byte, []byte, int, int, error) {
	h, sidecar, payload, err := codec.SplitBlock(data)
	if err != nil {
		return nil, BlockHeader{}, nil, nil, 0, 0, err
	}
	c, err := codec.ByID(h.CodecID)
	if err != nil {
		return nil, h, nil, nil, 0, 0, err
	}
	lo = max(lo, 0)
	hi = min(hi, h.N)
	if lo > hi {
		lo = hi
	}
	return c, h, sidecar, payload, lo, hi, nil
}

// DecodeBlockRange decodes only samples [lo, hi) of a self-describing
// block (bounds clamped to the block) with one Codec.DecodeRange call:
// the segment codecs (PMC, Swing, Sim-Piece) and CAMEO evaluate just the
// pieces spanning the range, and the bit-stream lossless codecs (gorilla,
// chimp, elf) seek through their checkpoint sidecar and replay at most a
// checkpoint interval of extra samples — random access straight out of
// the compressed form either way. Checkpoint-less bit-stream blocks
// (written with checkpoints disabled, or by older builds) replay from the
// block front up to hi. The values are bit-identical to
// DecodeBlock(data)[lo:hi].
func DecodeBlockRange(data []byte, lo, hi int) ([]float64, BlockHeader, error) {
	c, h, sidecar, payload, lo, hi, err := parseBlockPayload(data, lo, hi)
	if err != nil || lo >= hi {
		return nil, h, err
	}
	xs, _, err := c.DecodeRange(payload, sidecar, h.N, lo, hi, nil)
	return xs, h, err
}

// DecodeBlockWindowAggs aggregates consecutive step-sample windows of
// samples [lo, hi) of a self-describing block (bounds clamped; the last
// window may be partial), returning one RangeAgg per window — the
// downsampling shape of a dashboard query. One Codec.DecodeWindowAggs
// call fills the whole grid without materializing samples: the segment
// codecs and CAMEO in one pass over the compressed pieces, the bit-stream
// codecs in one seek-assisted pass over the compressed stream.
func DecodeBlockWindowAggs(data []byte, lo, hi, step int) ([]RangeAgg, BlockHeader, error) {
	if step < 1 {
		return nil, BlockHeader{}, fmt.Errorf("cameo: window step must be at least 1, got %d", step)
	}
	c, h, sidecar, payload, lo, hi, err := parseBlockPayload(data, lo, hi)
	if err != nil || lo >= hi {
		return nil, h, err
	}
	aggs := make([]RangeAgg, (hi-lo+step-1)/step)
	for i := range aggs {
		aggs[i] = codec.NewRangeAgg()
	}
	if _, err := c.DecodeWindowAggs(payload, sidecar, h.N, lo, hi, lo, step, aggs); err != nil {
		return nil, h, err
	}
	return aggs, h, nil
}

// DecodeBlockAgg aggregates samples [lo, hi) of a self-describing block
// (bounds clamped) as a single window of Codec.DecodeWindowAggs, so no
// samples are materialized for any codec.
func DecodeBlockAgg(data []byte, lo, hi int) (RangeAgg, BlockHeader, error) {
	c, h, sidecar, payload, lo, hi, err := parseBlockPayload(data, lo, hi)
	if err != nil {
		return RangeAgg{}, h, err
	}
	aggs := []RangeAgg{codec.NewRangeAgg()}
	if lo < hi {
		if _, err := c.DecodeWindowAggs(payload, sidecar, h.N, lo, hi, lo, hi-lo, aggs); err != nil {
			return RangeAgg{}, h, err
		}
	}
	return aggs[0], h, nil
}
