package codec

import (
	"fmt"
	"math"

	"repro/internal/series"
)

// Random access. Every codec decodes a subrange of a block and folds
// window aggregates without materializing the rest (Codec.DecodeRange and
// Codec.DecodeWindowAggs). The segment codecs (PMC, Swing, Sim-Piece) and
// CAMEO's irregular line form get this by construction: their payload is a
// list of closed-form pieces, so any subrange is evaluated from the pieces
// spanning it and sum/min/max/count follow from the piece parameters. The
// bit-stream lossless codecs (Gorilla, Chimp, Elf) get it from a
// checkpoint sidecar (bit offset + decoder state every k samples, stored in
// the version-2 block section): a partial read seeks to the last
// checkpoint before the range and replays O(overlap + k) samples instead
// of the whole block.

// DefaultCheckpointInterval is the checkpoint spacing (in samples) the
// bit-stream codecs use when none is configured: every 128 samples costs
// ~11-20 sidecar bytes per mark (well under 2% of a typical XOR stream)
// and bounds a cold partial read's replay overhead at 127 samples.
const DefaultCheckpointInterval = 128

// CheckpointEncoder is an optional Codec capability: encoding a block
// together with a checkpoint sidecar that EncodeBlock stores in the
// version-2 sidecar section. A nil sidecar (checkpointing disabled, or a
// block too small to earn a mark) downgrades the block to the version-1
// layout. The payload must be byte-identical to Encode's.
type CheckpointEncoder interface {
	EncodeCheckpointed(xs []float64) (payload, sidecar []byte, err error)
}

// CheckpointConfigurable is an optional Codec capability: returning a copy
// of the codec with a different checkpoint interval. ConfigureCheckpointInterval
// consults it so option plumbing does not need to know codec types.
type CheckpointConfigurable interface {
	// WithCheckpointInterval returns the codec with checkpoint spacing k:
	// positive = every k samples, negative = disabled, 0 = codec default.
	WithCheckpointInterval(k int) Codec
}

// ConfigureCheckpointInterval returns c reconfigured to checkpoint spacing
// k where the codec supports it, and c unchanged otherwise (or when k is 0,
// which means "keep the codec's current setting").
func ConfigureCheckpointInterval(c Codec, k int) Codec {
	if k == 0 {
		return c
	}
	if cc, ok := c.(CheckpointConfigurable); ok {
		return cc.WithCheckpointInterval(k)
	}
	return c
}

// RangeAgg summarizes a sample range: the aggregates a codec can push down
// (sum, min, max, count). Mean is Sum/Count. The zero Count value carries
// Min=+Inf and Max=-Inf so partial results merge with Merge; construct
// with NewRangeAgg.
type RangeAgg struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// NewRangeAgg returns the empty aggregate (identity element of Merge).
func NewRangeAgg() RangeAgg {
	return RangeAgg{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Merge folds another partial aggregate into a.
func (a *RangeAgg) Merge(b RangeAgg) {
	a.Count += b.Count
	a.Sum += b.Sum
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// Eval maps the aggregate to the scalar a window query reports: mean is
// Sum/Count, sum/max/min their fields. The single source of the mapping —
// the tsdb engine and the CLI both evaluate windows through it. Unknown
// functions (and mean over an empty window) yield NaN; callers validate f
// up front.
func (a RangeAgg) Eval(f series.AggFunc) float64 {
	switch f {
	case series.AggMean:
		return a.Sum / float64(a.Count)
	case series.AggSum:
		return a.Sum
	case series.AggMax:
		return a.Max
	case series.AggMin:
		return a.Min
	}
	return math.NaN()
}

// Add folds dense samples into a (the materialized fallback of the codec
// pushdown, and the path for cache-resident or in-flight blocks).
func (a *RangeAgg) Add(xs []float64) {
	for _, v := range xs {
		a.Sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count += len(xs)
}

// addConst folds a run of cnt samples all equal to v.
func (a *RangeAgg) addConst(v float64, cnt int) {
	if cnt <= 0 {
		return
	}
	a.Sum += v * float64(cnt)
	if v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
	a.Count += cnt
}

// addLinear folds cnt samples of the linear piece v(k) = v0 + slope*k for
// k = k0, k0+1, ..., k0+cnt-1 — the closed form shared by Swing,
// Sim-Piece, and CAMEO's interpolation segments. The sum uses the
// arithmetic-series identity; min and max sit at the endpoints of a
// linear piece, evaluated with the same expression decoding uses so they
// match materialized values bit-for-bit.
func (a *RangeAgg) addLinear(v0, slope float64, k0, cnt int) {
	if cnt <= 0 {
		return
	}
	first := v0 + slope*float64(k0)
	last := v0 + slope*float64(k0+cnt-1)
	a.Sum += float64(cnt)*v0 + slope*(float64(k0)+float64(k0+cnt-1))*float64(cnt)/2
	lo, hi := first, last
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < a.Min {
		a.Min = lo
	}
	if hi > a.Max {
		a.Max = hi
	}
	a.Count += cnt
}

// windowAccs distributes closed-form pieces onto a step-sample window
// grid, splitting each piece at window boundaries — the shared machinery
// behind the piecewise codecs' DecodeWindowAggs. Indices are absolute
// (block-relative) sample positions; the grid is anchored so that window
// k covers [anchor+k*step, anchor+(k+1)*step), and aggs[0] is the window
// containing the fold range's lo.
type windowAccs struct {
	anchor, step, k0 int
	aggs             []RangeAgg
}

func newWindowAccs(lo, anchor, step int, aggs []RangeAgg) windowAccs {
	return windowAccs{anchor: anchor, step: step, k0: (lo - anchor) / step, aggs: aggs}
}

// addConst folds a constant run: value v for t in [t0, t1).
func (w *windowAccs) addConst(t0, t1 int, v float64) {
	for t0 < t1 {
		k := (t0 - w.anchor) / w.step
		end := min(t1, w.anchor+(k+1)*w.step)
		w.aggs[k-w.k0].addConst(v, end-t0)
		t0 = end
	}
}

// addLinear folds a linear piece: value v0 + slope*(t-base) for t in
// [t0, t1).
func (w *windowAccs) addLinear(t0, t1, base int, v0, slope float64) {
	for t0 < t1 {
		k := (t0 - w.anchor) / w.step
		end := min(t1, w.anchor+(k+1)*w.step)
		w.aggs[k-w.k0].addLinear(v0, slope, t0-base, end-t0)
		t0 = end
	}
}

// checkWindows validates a DecodeWindowAggs request: a well-formed
// subrange, a grid whose anchor does not trail into it, and enough
// accumulators for every window the range touches.
func checkWindows(n, lo, hi, anchor, step int, aggs []RangeAgg) error {
	if err := checkRange(n, lo, hi); err != nil {
		return err
	}
	if step < 1 {
		return fmt.Errorf("codec: window step must be at least 1, got %d", step)
	}
	if anchor > lo {
		return fmt.Errorf("codec: window anchor %d beyond range start %d", anchor, lo)
	}
	if hi > lo {
		if need := (hi-1-anchor)/step - (lo-anchor)/step + 1; need > len(aggs) {
			return fmt.Errorf("codec: %d window accumulators for a range touching %d windows", len(aggs), need)
		}
	}
	return nil
}

// checkRange validates a block subrange request.
func checkRange(n, lo, hi int) error {
	if n < 0 || n > MaxBlockSamples {
		return fmt.Errorf("%w: bad sample count %d", ErrBadBlock, n)
	}
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("codec: bad range [%d,%d) of a %d-sample block", lo, hi, n)
	}
	return nil
}
