package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
	"unsafe"

	cameo "repro"
)

// worker is one load-generating client goroutine's state: its random
// stream, its replayer (traced runs), and its count of read operations,
// every checkEvery-th of which is kept for verifyReads.
type worker struct {
	e     *env
	rng   *rand.Rand
	rep   *replayer
	reads int
}

// checkEvery samples one in this many read operations for the
// HTTP-versus-direct bit-identity check.
const checkEvery = 16

func newWorker(e *env, id int) (*worker, error) {
	seed := e.seed*1000003 + int64(id)
	w := &worker{e: e, rng: rand.New(rand.NewSource(seed))}
	if e.tr != nil {
		rep, err := newReplayer(e, e.idx, seed)
		if err != nil {
			return nil, err
		}
		w.rep = rep
	}
	return w, nil
}

// opIDs reserves the op-root and server span IDs of a traced operation and
// renders the header that hands them to the server wrapper.
func (w *worker) opIDs() (op, srv int64, hdr string) {
	if w.e.tr == nil {
		return 0, 0, ""
	}
	op, srv = w.e.tr.newID(), w.e.tr.newID()
	return op, srv, strconv.FormatInt(op, 10) + ":" + strconv.FormatInt(srv, 10)
}

func (w *worker) root(op int64, kind string, start, end time.Time) {
	w.e.tr.add(span{ID: op, Op: op, Kind: kind, Name: layerOp, Start: start, End: end})
}

// opResult is what an operation reports to its load generator: the HTTP
// round trip's wall time, its status and whether it (and its checks)
// succeeded.
type opResult struct {
	dur    time.Duration
	status int
	err    error
}

// record files a closed-loop operation's outcome under kind.
func (w *worker) record(kind string, r opResult) {
	if r.err != nil {
		w.e.rec.fail(kind, r.status, fmt.Sprintf("%s: %v", kind, r.err))
		return
	}
	w.e.rec.ok(kind, r.dur)
}

// write POSTs one line-form batch; on success the series' acknowledged
// length advances.
func (w *worker) write(name string, vals []float64) opResult {
	e := w.e
	op, srv, hdr := w.opIDs()
	start := time.Now()
	res := e.cl.write(name, vals, hdr)
	end := time.Now()
	err := res.outcome()
	if err == nil {
		err = parseWriteAck(res.body, len(vals))
	}
	if err != nil {
		return opResult{dur: end.Sub(start), status: res.status, err: err}
	}
	e.in.written[name].Add(int64(len(vals)))
	if w.rep != nil {
		w.root(op, kindWrite, start, end)
		var aerr error
		tid, d := w.rep.timed(op, srv, layerTSDB, func() { aerr = e.mirror.Append(name, vals...) })
		if aerr != nil {
			return opResult{dur: end.Sub(start), status: res.status, err: fmt.Errorf("mirror append: %w", aerr)}
		}
		e.lay.add(&e.lay.appendUs, float64(d.Nanoseconds())/1e3)
		w.rep.sealed(op, tid, name, w.rep.idx.rescan(name))
	}
	return opResult{dur: end.Sub(start), status: res.status}
}

// sample counts a read and keeps every checkEvery-th one for verifyReads,
// which repeats it after the load against the direct store call.
func (w *worker) sample(c readCheck) {
	if w.reads++; w.reads%checkEvery != 0 {
		return
	}
	w.e.checksMu.Lock()
	w.e.checks = append(w.e.checks, c)
	w.e.checkNames += int64(cap(c.names)) * int64(unsafe.Sizeof(""))
	w.e.checksMu.Unlock()
}

// query GETs the raw samples [from, to) of one series, as an operation of
// type kind (kindQuery or kindScan).
func (w *worker) query(kind, name string, from, to int) opResult {
	e := w.e
	op, srv, hdr := w.opIDs()
	start := time.Now()
	res := e.cl.query(name, from, to, hdr)
	end := time.Now()
	r := opResult{dur: end.Sub(start), status: res.status, err: res.outcome()}
	if r.err != nil {
		return r
	}
	e.rec.addResponse(len(res.body), to-from)
	w.sample(readCheck{kind: kind, names: []string{name}, from: from, to: to})
	if w.rep != nil {
		w.root(op, kind, start, end)
		chunks := 0
		w.rep.read(op, srv, []string{name}, from, to, func() {
			cur, err := e.mirror.Cursor(name, from, to)
			if err != nil {
				return
			}
			for {
				if _, ok := cur.Next(); !ok {
					break
				}
				chunks++
			}
			cur.Close()
		}, func(d time.Duration) {
			if chunks > 0 {
				e.lay.add(&e.lay.cursorUsBlk, float64(d.Nanoseconds())/1e3/float64(chunks))
			}
		})
	}
	return r
}

// agg GETs mean aggregates of step-sample windows over [from, to).
func (w *worker) agg(name string, from, to, step int) opResult {
	e := w.e
	op, srv, hdr := w.opIDs()
	start := time.Now()
	res := e.cl.agg(name, from, to, step, hdr)
	end := time.Now()
	r := opResult{dur: end.Sub(start), status: res.status, err: res.outcome()}
	if r.err != nil {
		return r
	}
	w.sample(readCheck{kind: kindAgg, names: []string{name}, from: from, to: to, step: step})
	if w.rep != nil {
		w.root(op, kindAgg, start, end)
		w.rep.agg(op, srv, name, from, to, step, func() { e.mirror.QueryAgg(name, from, to, step, cameo.AggMean) })
	}
	return r
}

// batch POSTs one multi-series raw query over [from, to).
func (w *worker) batch(names []string, from, to int) opResult {
	e := w.e
	op, srv, hdr := w.opIDs()
	start := time.Now()
	res := e.cl.batch(names, from, to, hdr)
	end := time.Now()
	r := opResult{dur: end.Sub(start), status: res.status, err: res.outcome()}
	if r.err != nil {
		return r
	}
	e.rec.addResponse(len(res.body), (to-from)*len(names))
	w.sample(readCheck{kind: kindBatch, names: names, from: from, to: to})
	if w.rep != nil {
		w.root(op, kindBatch, start, end)
		w.rep.read(op, srv, names, from, to, func() { e.mirror.QueryMulti(names, from, to) }, nil)
	}
	return r
}

// scrape GETs /metrics once and records its time.
func (w *worker) scrape() {
	e := w.e
	res := e.cl.scrape()
	if err := res.outcome(); err != nil {
		e.rec.fail("", res.status, "scrape: "+err.Error())
		return
	}
	e.rec.check(true, "")
	if e.lay != nil {
		e.lay.add(&e.lay.scrapeMs, ms(res.dur))
	}
}
