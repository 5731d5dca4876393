package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/lossy"
)

// The pointwise-lossy adapters wrap the segment-based compressors of
// internal/lossy (PMC, Swing, Sim-Piece). Each guarantees a per-value
// reconstruction error of at most RelBound times the block's value range,
// and serializes its segments as
//
//	uvarint segment count | per segment: uvarint length + model floats
//
// with starts implied by cumulative lengths, so decoding needs no
// parameters — the error bound only shapes encoding. These codecs reject
// non-finite input: NaN poisons their window comparisons, silently
// absorbing the whole block into one garbage segment.

// DefaultRelBound is the per-value error bound used when a lossy segment
// codec's RelBound is zero: 1% of the block's value range.
const DefaultRelBound = 0.01

// segErrBound maps a relative bound to the absolute per-value bound for
// one block, rejecting non-finite samples.
func segErrBound(xs []float64, rel float64) (float64, error) {
	if rel == 0 {
		rel = DefaultRelBound
	}
	if rel < 0 || math.IsNaN(rel) {
		return 0, fmt.Errorf("codec: RelBound must be non-negative, got %v", rel)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("codec: non-finite value at index %d (lossy segment codecs need finite input)", i)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := hi - lo
	if !(rng > 0) { // empty or constant block
		rng = 1
	}
	return rel * rng, nil
}

// segWriter appends length-prefixed segment records.
type segWriter struct{ buf []byte }

func (w *segWriter) count(c int)  { w.buf = binary.AppendUvarint(w.buf, uint64(c)) }
func (w *segWriter) length(l int) { w.buf = binary.AppendUvarint(w.buf, uint64(l)) }
func (w *segWriter) float(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *segWriter) bytes() []byte    { return w.buf }
func newSegWriter(cap int) *segWriter { return &segWriter{buf: make([]byte, 0, cap)} }

// segReader parses length-prefixed segment records with bounds checking.
type segReader struct {
	data []byte
	off  int
}

func (r *segReader) uvarint() (int, error) {
	v, k := binary.Uvarint(r.data[r.off:])
	if k <= 0 || v > MaxBlockSamples {
		return 0, fmt.Errorf("%w: bad segment varint", ErrBadBlock)
	}
	r.off += k
	return int(v), nil
}

func (r *segReader) float() (float64, error) {
	if r.off+8 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated segment float", ErrBadBlock)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

func (r *segReader) done() error {
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes after segments", ErrBadBlock, len(r.data)-r.off)
	}
	return nil
}

// decodeSegments validates n, parses the segment stream, and emits each
// segment with its cumulative start — the shared decode shape of the three
// segment codecs, which differ only in their segment struct and float
// count.
func decodeSegments(data []byte, n, floatsPer int, emit func(start, length int, fs []float64)) error {
	if n < 0 || n > MaxBlockSamples {
		return fmt.Errorf("%w: bad sample count %d", ErrBadBlock, n)
	}
	lengths, floats, err := readSegments(data, n, floatsPer)
	if err != nil {
		return err
	}
	start := 0
	for i := range lengths {
		emit(start, lengths[i], floats[i])
		start += lengths[i]
	}
	return nil
}

// readSegments parses count and per-segment (length, floatsPer floats),
// validating that lengths are positive and sum exactly to n.
func readSegments(data []byte, n, floatsPer int) (lengths []int, floats [][]float64, err error) {
	r := &segReader{data: data}
	count, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	// Each segment needs at least 1 varint byte + 8 bytes per float, so a
	// count beyond this is structurally impossible — reject before
	// allocating for it.
	if count > (len(data)-r.off)/(1+8*floatsPer)+1 {
		return nil, nil, fmt.Errorf("%w: segment count %d exceeds payload", ErrBadBlock, count)
	}
	lengths = make([]int, count)
	floats = make([][]float64, count)
	total := 0
	for i := 0; i < count; i++ {
		l, err := r.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if l < 1 || l > n-total {
			return nil, nil, fmt.Errorf("%w: segment %d length %d overruns block of %d", ErrBadBlock, i, l, n)
		}
		total += l
		lengths[i] = l
		fs := make([]float64, floatsPer)
		for j := range fs {
			if fs[j], err = r.float(); err != nil {
				return nil, nil, err
			}
		}
		floats[i] = fs
	}
	if total != n {
		return nil, nil, fmt.Errorf("%w: segments cover %d of %d samples", ErrBadBlock, total, n)
	}
	if err := r.done(); err != nil {
		return nil, nil, err
	}
	return lengths, floats, nil
}

// PMC is Poor Man's Compression: piecewise-constant segments, each stored
// as one length + one value. Lossy with per-value error <= RelBound x the
// block's value range.
type PMC struct {
	// RelBound is the per-value error bound as a fraction of the block's
	// value range (0 selects DefaultRelBound).
	RelBound float64
}

// Name returns "pmc".
func (PMC) Name() string { return "pmc" }

// ID returns IDPMC.
func (PMC) ID() uint8 { return IDPMC }

// Lossy reports true.
func (PMC) Lossy() bool { return true }

// Encode compresses the block into constant segments.
func (c PMC) Encode(xs []float64) ([]byte, error) {
	eb, err := segErrBound(xs, c.RelBound)
	if err != nil {
		return nil, err
	}
	segs := lossy.PMCSegments(xs, eb)
	w := newSegWriter(2 + 10*len(segs))
	w.count(len(segs))
	for _, s := range segs {
		w.length(s.Length)
		w.float(s.Value)
	}
	return w.bytes(), nil
}

// Decode reconstructs the dense block from the segment stream.
func (PMC) Decode(data []byte, n int) ([]float64, error) {
	var segs []lossy.PMCSegment
	err := decodeSegments(data, n, 1, func(start, length int, fs []float64) {
		segs = append(segs, lossy.PMCSegment{Start: start, Length: length, Value: fs[0]})
	})
	if err != nil {
		return nil, err
	}
	return lossy.PMCDecode(n, segs), nil
}

// DecodeRange evaluates only the constant segments overlapping [lo, hi),
// appending to dst. Bit-identical to the corresponding slice of Decode.
// PMC blocks carry no sidecar and report 0 bits.
func (PMC) DecodeRange(data, _ []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	if err := checkRange(n, lo, hi); err != nil {
		return nil, 0, err
	}
	err := decodeSegments(data, n, 1, func(start, length int, fs []float64) {
		for t := max(lo, start); t < min(hi, start+length); t++ {
			dst = append(dst, fs[0])
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return dst, 0, nil
}

// DecodeWindowAggs folds [lo, hi) into step-sample windows in one pass
// over the constant segments; no samples are materialized.
func (PMC) DecodeWindowAggs(data, _ []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	if err := checkWindows(n, lo, hi, anchor, step, aggs); err != nil {
		return 0, err
	}
	wa := newWindowAccs(lo, anchor, step, aggs)
	return 0, decodeSegments(data, n, 1, func(start, length int, fs []float64) {
		if t0, t1 := max(lo, start), min(hi, start+length); t0 < t1 {
			wa.addConst(t0, t1, fs[0])
		}
	})
}

// linearRange appends the overlap of [lo, hi) with each linear segment of
// a 2-float stream (base fs[0], slope fs[1], value base + slope*(t-start))
// — the shared DecodeRange of Swing and Sim-Piece, whose dense decoders
// evaluate exactly this expression.
func linearRange(data []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	if err := checkRange(n, lo, hi); err != nil {
		return nil, 0, err
	}
	err := decodeSegments(data, n, 2, func(start, length int, fs []float64) {
		for t := max(lo, start); t < min(hi, start+length); t++ {
			dst = append(dst, fs[0]+fs[1]*float64(t-start))
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return dst, 0, nil
}

// linearWindowAggs folds [lo, hi) of a 2-float linear segment stream into
// step-sample windows in one closed-form pass — the shared
// DecodeWindowAggs of Swing and Sim-Piece.
func linearWindowAggs(data []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	if err := checkWindows(n, lo, hi, anchor, step, aggs); err != nil {
		return 0, err
	}
	wa := newWindowAccs(lo, anchor, step, aggs)
	return 0, decodeSegments(data, n, 2, func(start, length int, fs []float64) {
		if t0, t1 := max(lo, start), min(hi, start+length); t0 < t1 {
			wa.addLinear(t0, t1, start, fs[0], fs[1])
		}
	})
}

// Swing is the Swing filter: piecewise-linear segments anchored at their
// first point, each stored as length + start value + slope. Lossy with
// per-value error <= RelBound x the block's value range.
type Swing struct {
	// RelBound is the per-value error bound as a fraction of the block's
	// value range (0 selects DefaultRelBound).
	RelBound float64
}

// Name returns "swing".
func (Swing) Name() string { return "swing" }

// ID returns IDSwing.
func (Swing) ID() uint8 { return IDSwing }

// Lossy reports true.
func (Swing) Lossy() bool { return true }

// Encode compresses the block into linear segments.
func (c Swing) Encode(xs []float64) ([]byte, error) {
	eb, err := segErrBound(xs, c.RelBound)
	if err != nil {
		return nil, err
	}
	segs := lossy.SwingSegments(xs, eb)
	w := newSegWriter(2 + 18*len(segs))
	w.count(len(segs))
	for _, s := range segs {
		w.length(s.Length)
		w.float(s.StartValue)
		w.float(s.Slope)
	}
	return w.bytes(), nil
}

// Decode reconstructs the dense block from the segment stream.
func (Swing) Decode(data []byte, n int) ([]float64, error) {
	var segs []lossy.SwingSegment
	err := decodeSegments(data, n, 2, func(start, length int, fs []float64) {
		segs = append(segs, lossy.SwingSegment{Start: start, Length: length, StartValue: fs[0], Slope: fs[1]})
	})
	if err != nil {
		return nil, err
	}
	return lossy.SwingDecode(n, segs), nil
}

// DecodeRange evaluates only the linear segments overlapping [lo, hi),
// appending to dst. Bit-identical to the corresponding slice of Decode.
func (Swing) DecodeRange(data, _ []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	return linearRange(data, n, lo, hi, dst)
}

// DecodeWindowAggs folds [lo, hi) into step-sample windows in one pass
// over the linear segments; no samples are materialized.
func (Swing) DecodeWindowAggs(data, _ []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	return linearWindowAggs(data, n, lo, hi, anchor, step, aggs)
}

// SimPiece is the Sim-Piece compressor: piecewise-linear segments with
// epsilon-quantized intercepts and merged shared slopes, each stored as
// length + intercept + slope. (The serialized form stores the intercept
// and slope per segment rather than Sim-Piece's grouped table, trading a
// few bytes for a self-delimiting stream.) Lossy with per-value error <=
// RelBound x the block's value range.
type SimPiece struct {
	// RelBound is the per-value error bound as a fraction of the block's
	// value range (0 selects DefaultRelBound).
	RelBound float64
}

// Name returns "simpiece".
func (SimPiece) Name() string { return "simpiece" }

// ID returns IDSimPiece.
func (SimPiece) ID() uint8 { return IDSimPiece }

// Lossy reports true.
func (SimPiece) Lossy() bool { return true }

// Encode compresses the block into merged linear segments.
func (c SimPiece) Encode(xs []float64) ([]byte, error) {
	eb, err := segErrBound(xs, c.RelBound)
	if err != nil {
		return nil, err
	}
	segs, _ := lossy.SimPieceSegments(xs, eb)
	w := newSegWriter(2 + 18*len(segs))
	w.count(len(segs))
	for _, s := range segs {
		w.length(s.Length)
		w.float(s.B)
		w.float(s.A)
	}
	return w.bytes(), nil
}

// Decode reconstructs the dense block from the segment stream.
func (SimPiece) Decode(data []byte, n int) ([]float64, error) {
	var segs []lossy.SPSegment
	err := decodeSegments(data, n, 2, func(start, length int, fs []float64) {
		segs = append(segs, lossy.SPSegment{Start: start, Length: length, B: fs[0], A: fs[1]})
	})
	if err != nil {
		return nil, err
	}
	return lossy.SPDecode(n, segs), nil
}

// DecodeRange evaluates only the merged linear segments overlapping
// [lo, hi), appending to dst. Bit-identical to the corresponding slice of
// Decode.
func (SimPiece) DecodeRange(data, _ []byte, n, lo, hi int, dst []float64) ([]float64, int, error) {
	return linearRange(data, n, lo, hi, dst)
}

// DecodeWindowAggs folds [lo, hi) into step-sample windows in one pass
// over the merged linear segments; no samples are materialized.
func (SimPiece) DecodeWindowAggs(data, _ []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error) {
	return linearWindowAggs(data, n, lo, hi, anchor, step, aggs)
}
