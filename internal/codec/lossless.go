package codec

import (
	"fmt"

	"repro/internal/lossless"
)

// The lossless adapters wrap the XOR-family encoders of internal/lossless.
// They reproduce every float64 bit-exactly (including NaN payloads and
// infinities), so a store using them is a durability-grade archive: queries
// replay exactly what was appended, at the cost of ~5-20x less compression
// than the lossy codecs on smooth sensor data.
//
// Each adapter carries an Interval knob selecting its checkpoint spacing
// (see CheckpointEncoder): 0 uses DefaultCheckpointInterval, negative
// disables checkpointing, positive checkpoints every Interval samples. The
// knob only adds or removes the sidecar — the XOR bit stream itself is
// identical under every setting, so blocks written with different intervals
// (or none) replay bit-identically.

// losslessDecode runs one of the internal/lossless decoders and validates
// the sample count against the block header.
func losslessDecode(method string, data []byte, n int) ([]float64, error) {
	if n < 0 || n > MaxBlockSamples {
		return nil, fmt.Errorf("%w: bad sample count %d", ErrBadBlock, n)
	}
	enc := lossless.Encoded{Method: method, N: n, Data: data}
	xs, err := enc.Decompress()
	if err != nil {
		return nil, err
	}
	if len(xs) != n {
		return nil, fmt.Errorf("%w: %s payload decoded to %d samples, header says %d", ErrBadBlock, method, len(xs), n)
	}
	return xs, nil
}

// checkpointInterval maps the adapter knob onto the encoder argument:
// 0 = default spacing, negative = disabled.
func checkpointInterval(k int) int {
	if k == 0 {
		return DefaultCheckpointInterval
	}
	if k < 0 {
		return 0
	}
	return k
}

// appendSidecar serializes a checkpoint recorder (nil stays nil, keeping
// the block on the version-1 layout).
func appendSidecar(ck *lossless.Checkpoints) []byte {
	if ck == nil {
		return nil
	}
	return ck.AppendBinary(nil)
}

// parseSidecar deserializes a block's checkpoint sidecar; an absent sidecar
// yields a nil Checkpoints, which the range decoders treat as "replay from
// the front". Malformed sidecars are reported as ErrBadBlock.
func parseSidecar(sidecar []byte, n int) (*lossless.Checkpoints, error) {
	if len(sidecar) == 0 {
		return nil, nil
	}
	ck, err := lossless.ParseCheckpoints(sidecar, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	return ck, nil
}

// losslessDecodeRange implements DecodeRange for the XOR family: seek via
// the sidecar, replay to lo, append [lo, hi) to dst.
func losslessDecodeRange(method string, payload, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	if err := checkRange(n, lo, hi); err != nil {
		return nil, 0, err
	}
	ck, err := parseSidecar(sidecar, n)
	if err != nil {
		return nil, 0, err
	}
	bits, err := lossless.DecompressRange(method, payload, n, ck, lo, hi, func(v float64) {
		dst = append(dst, v)
	})
	if err != nil {
		return nil, 0, err
	}
	return dst, bits, nil
}

// losslessWindowAggs implements DecodeWindowAggs for the XOR family: one
// seek-assisted pass over [lo, hi), folding each decoded sample into its
// window accumulator (same left-to-right order as the dense fold, so
// results are bit-identical to materialize-then-fold).
func losslessWindowAggs(method string, payload, sidecar []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	if err := checkWindows(n, lo, hi, anchor, step, aggs); err != nil {
		return 0, err
	}
	if lo >= hi {
		return 0, nil
	}
	ck, err := parseSidecar(sidecar, n)
	if err != nil {
		return 0, err
	}
	k0 := (lo - anchor) / step
	t := lo
	return lossless.DecompressRange(method, payload, n, ck, lo, hi, func(v float64) {
		a := &aggs[(t-anchor)/step-k0]
		a.Sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
		a.Count++
		t++
	})
}

// Gorilla is the Facebook Gorilla XOR codec: lossless, fastest of the
// family, strongest on series with many repeated or slowly-drifting values.
// Interval is the checkpoint spacing (0 = DefaultCheckpointInterval,
// negative = no checkpoints).
type Gorilla struct{ Interval int }

// Name returns "gorilla".
func (Gorilla) Name() string { return "gorilla" }

// ID returns IDGorilla.
func (Gorilla) ID() uint8 { return IDGorilla }

// Lossy reports false.
func (Gorilla) Lossy() bool { return false }

// Encode compresses the block with the Gorilla XOR scheme.
func (Gorilla) Encode(xs []float64) ([]byte, error) {
	return lossless.Gorilla(xs).Data, nil
}

// Decode reverses Encode.
func (Gorilla) Decode(data []byte, n int) ([]float64, error) {
	return losslessDecode("gorilla", data, n)
}

// EncodeCheckpointed compresses the block and emits the checkpoint sidecar.
func (g Gorilla) EncodeCheckpointed(xs []float64) ([]byte, []byte, error) {
	enc, ck := lossless.GorillaCheckpointed(xs, checkpointInterval(g.Interval))
	return enc.Data, appendSidecar(ck), nil
}

// DecodeRange decodes samples [lo, hi) via the sidecar.
func (Gorilla) DecodeRange(payload, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	return losslessDecodeRange("gorilla", payload, sidecar, n, lo, hi, dst)
}

// DecodeWindowAggs folds samples [lo, hi) into step windows via the
// sidecar.
func (Gorilla) DecodeWindowAggs(payload, sidecar []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	return losslessWindowAggs("gorilla", payload, sidecar, n, lo, hi, anchor, step, aggs)
}

// WithCheckpointInterval returns the codec with checkpoint spacing k.
func (Gorilla) WithCheckpointInterval(k int) Codec { return Gorilla{Interval: k} }

// Chimp is the Chimp XOR codec: lossless, typically denser than Gorilla on
// series without long runs of identical values. Interval is the checkpoint
// spacing (0 = DefaultCheckpointInterval, negative = no checkpoints).
type Chimp struct{ Interval int }

// Name returns "chimp".
func (Chimp) Name() string { return "chimp" }

// ID returns IDChimp.
func (Chimp) ID() uint8 { return IDChimp }

// Lossy reports false.
func (Chimp) Lossy() bool { return false }

// Encode compresses the block with the Chimp XOR scheme.
func (Chimp) Encode(xs []float64) ([]byte, error) {
	return lossless.Chimp(xs).Data, nil
}

// Decode reverses Encode.
func (Chimp) Decode(data []byte, n int) ([]float64, error) {
	return losslessDecode("chimp", data, n)
}

// EncodeCheckpointed compresses the block and emits the checkpoint sidecar.
func (c Chimp) EncodeCheckpointed(xs []float64) ([]byte, []byte, error) {
	enc, ck := lossless.ChimpCheckpointed(xs, checkpointInterval(c.Interval))
	return enc.Data, appendSidecar(ck), nil
}

// DecodeRange decodes samples [lo, hi) via the sidecar.
func (Chimp) DecodeRange(payload, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	return losslessDecodeRange("chimp", payload, sidecar, n, lo, hi, dst)
}

// DecodeWindowAggs folds samples [lo, hi) into step windows via the
// sidecar.
func (Chimp) DecodeWindowAggs(payload, sidecar []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	return losslessWindowAggs("chimp", payload, sidecar, n, lo, hi, anchor, step, aggs)
}

// WithCheckpointInterval returns the codec with checkpoint spacing k.
func (Chimp) WithCheckpointInterval(k int) Codec { return Chimp{Interval: k} }

// Elf is the erase-based lossless codec: short-decimal values get their
// redundant mantissa bits zeroed before XOR coding (and exactly restored on
// decode), making it the strongest lossless choice for sensor readings
// rounded to a few digits. Interval is the checkpoint spacing (0 =
// DefaultCheckpointInterval, negative = no checkpoints).
type Elf struct{ Interval int }

// Name returns "elf".
func (Elf) Name() string { return "elf" }

// ID returns IDElf.
func (Elf) ID() uint8 { return IDElf }

// Lossy reports false.
func (Elf) Lossy() bool { return false }

// Encode compresses the block with the Elf erase + XOR scheme.
func (Elf) Encode(xs []float64) ([]byte, error) {
	return lossless.Elf(xs).Data, nil
}

// Decode reverses Encode.
func (Elf) Decode(data []byte, n int) ([]float64, error) {
	return losslessDecode("elf", data, n)
}

// EncodeCheckpointed compresses the block and emits the checkpoint sidecar.
func (e Elf) EncodeCheckpointed(xs []float64) ([]byte, []byte, error) {
	enc, ck := lossless.ElfCheckpointed(xs, checkpointInterval(e.Interval))
	return enc.Data, appendSidecar(ck), nil
}

// DecodeRange decodes samples [lo, hi) via the sidecar.
func (Elf) DecodeRange(payload, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	return losslessDecodeRange("elf", payload, sidecar, n, lo, hi, dst)
}

// DecodeWindowAggs folds samples [lo, hi) into step windows via the
// sidecar.
func (Elf) DecodeWindowAggs(payload, sidecar []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	return losslessWindowAggs("elf", payload, sidecar, n, lo, hi, anchor, step, aggs)
}

// WithCheckpointInterval returns the codec with checkpoint spacing k.
func (Elf) WithCheckpointInterval(k int) Codec { return Elf{Interval: k} }
