package main

import (
	"fmt"
	"math"

	cameo "repro"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/series"
)

// devTolerance absorbs floating-point rounding when the ACF deviation is
// recomputed from scratch; the repository's own tests use the same slack.
const devTolerance = 1e-9

// checkStored reads back every block the run left in the store, one span
// per block file, and checks it against the input values of that span: a
// CAMEO span's ACF deviation must be within the codec's epsilon, a
// lossless span must be bit-identical. Every block is one attempted check;
// a failure counts in the run's failures. It returns the largest CAMEO
// deviation seen and the block bytes and samples per codec.
func checkStored(e *env) (devMax float64, bytes, samples map[string]int64) {
	opt := core.Options(e.opts.Compression)
	bytes, samples = map[string]int64{}, map[string]int64{}
	for _, name := range e.in.names {
		written := int(e.in.written[name].Load())
		blocks, err := listBlocks(seriesDir(e.dir, name), nil)
		if err != nil {
			e.rec.check(false, fmt.Sprintf("listing %s: %v", name, err))
			continue
		}
		for _, b := range blocks {
			c, err := codec.ByID(b.codecID)
			if err != nil || b.end() > written {
				e.rec.check(false, fmt.Sprintf("%s block %d: codec %d, ends at %d of %d written", name, b.start, b.codecID, b.end(), written))
				continue
			}
			bytes[c.Name()] += b.size
			samples[c.Name()] += int64(b.n)
			got, err := e.db.Query(name, b.start, b.end())
			if err != nil {
				e.rec.check(false, fmt.Sprintf("%s block %d: %v", name, b.start, err))
				continue
			}
			raw := e.in.data[name][b.start:b.end()]
			switch {
			case b.codecID == codec.IDCAMEO:
				dev, err := core.Deviation(raw, series.FromDense(got), opt)
				ok := err == nil && dev <= opt.Epsilon+devTolerance
				if err == nil {
					devMax = max(devMax, dev)
				}
				e.rec.check(ok, fmt.Sprintf("%s block [%d,%d): ACF deviation %v over epsilon %v (%v)", name, b.start, b.end(), dev, opt.Epsilon, err))
			case !c.Lossy():
				err := sameBits(fmt.Sprintf("%s lossless block %d", name, b.start), got, raw)
				e.rec.check(err == nil, fmt.Sprint(err))
			}
		}
	}
	return devMax, bytes, samples
}

// readCheck is one sampled read: its type, series and range.
type readCheck struct {
	kind           string
	names          []string
	from, to, step int
}

// verifyReads repeats every sampled read once the load has stopped, one at
// a time, over HTTP and as the direct Query, QueryAgg or QueryMulti call,
// and checks the two answers are bit-identical. Nothing else runs in
// between, so both see the same store, the same cache contents included:
// QueryAgg folds cached samples but pushes down into the compressed form
// for uncached blocks, and the two can differ in the last ulps. Each check
// is one attempt; a mismatch counts in the run's failures.
func verifyReads(e *env) {
	e.checksMu.Lock()
	checks := e.checks
	e.checksMu.Unlock()
	for _, c := range checks {
		err := c.verify(e)
		e.rec.check(err == nil, fmt.Sprint(err))
	}
}

func (c readCheck) verify(e *env) error {
	name := c.names[0]
	switch c.kind {
	case kindQuery, kindScan:
		res := e.cl.query(name, c.from, c.to, "")
		if err := res.outcome(); err != nil {
			return err
		}
		got, err := parseRaw(res.body, c.from)
		if err != nil {
			return err
		}
		want, err := e.db.Query(name, c.from, c.to)
		if err != nil {
			return err
		}
		return sameBits("query "+name, got, want)
	case kindAgg:
		res := e.cl.agg(name, c.from, c.to, c.step, "")
		if err := res.outcome(); err != nil {
			return err
		}
		got, err := parseAgg(res.body)
		if err != nil {
			return err
		}
		want, err := e.db.QueryAgg(name, c.from, c.to, c.step, cameo.AggMean)
		if err != nil {
			return err
		}
		return sameBits("query_agg "+name, got, want)
	default:
		res := e.cl.batch(c.names, c.from, c.to, "")
		if err := res.outcome(); err != nil {
			return err
		}
		got, err := parseBatch(res.body, c.names)
		if err != nil {
			return err
		}
		want, err := e.db.QueryMulti(c.names, c.from, c.to)
		if err != nil {
			return err
		}
		for i := range want {
			if want[i].Err != nil {
				return want[i].Err
			}
			if err := sameBits("batch "+c.names[i], got[i], want[i].Values); err != nil {
				return err
			}
		}
		return nil
	}
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: HTTP returned %d values, direct call %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: value %d differs: HTTP %v, direct %v", what, i, got[i], want[i])
		}
	}
	return nil
}
