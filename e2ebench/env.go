package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	cameo "repro"
	"repro/internal/datasets"
)

// inputs holds every series' generated values by position, plus how many
// of them the store has acknowledged. The program only ever sees these
// values; the benchmark keeps them to check what it reads back. Several
// names may share one array of values (see alias).
type inputs struct {
	names   []string
	data    map[string][]float64
	written map[string]*atomic.Int64
	bytes   int64 // size of the distinct value arrays
}

func newInputs() *inputs {
	return &inputs{data: map[string][]float64{}, written: map[string]*atomic.Int64{}}
}

// group1 are the dataset replicas whose ACF the paper preserves directly.
var group1 = []datasets.Spec{datasets.ElecPower(), datasets.MinTemp(), datasets.Pedestrian(), datasets.UKElecDem()}

// add generates n values for a new series from the replica at position
// idx of group1 (cycling), seeded by the workload seed and the series
// number, so the same seed always gives the same values.
func (in *inputs) add(name string, idx, n int, seed int64) {
	in.names = append(in.names, name)
	in.data[name] = group1[idx%len(group1)].GenerateN(n, seed*7919+int64(idx))
	in.written[name] = new(atomic.Int64)
	in.bytes += int64(n) * 8
}

// alias adds a series whose values are those of an existing one.
func (in *inputs) alias(name, of string) {
	in.names = append(in.names, name)
	in.data[name] = in.data[of]
	in.written[name] = new(atomic.Int64)
}

// fresh returns inputs with the same values and nothing acknowledged, for
// a newly set-up store.
func (in *inputs) fresh() *inputs {
	out := &inputs{names: in.names, data: in.data, written: map[string]*atomic.Int64{}, bytes: in.bytes}
	for _, n := range in.names {
		out.written[n] = new(atomic.Int64)
	}
	return out
}

func (in *inputs) totalWritten() int64 {
	var t int64
	for _, w := range in.written {
		t += w.Load()
	}
	return t
}

// atLeast returns the series with at least n samples acknowledged.
func (in *inputs) atLeast(n int) []string {
	var out []string
	for _, name := range in.names {
		if int(in.written[name].Load()) >= n {
			out = append(out, name)
		}
	}
	return out
}

// env is one opened store, served over HTTP on a loopback listener in this
// process, plus everything the load generators and checks share. In a
// traced run it also owns the mirror: an identically seeded store on which
// every operation is replayed as a direct call.
type env struct {
	wl   *workload
	seed int64
	dir  string
	opts cameo.StoreOptions

	db     *cameo.Store
	mirror *cameo.Store
	mdir   string

	ln  net.Listener
	srv *http.Server
	cl  *client

	in  *inputs
	rec *recorder
	tr  *tracer
	lay *layers
	idx *blockIndex // the mirror's block files (traced runs)

	checksMu   sync.Mutex
	checks     []readCheck // sampled reads, verified after the load
	checkNames int64       // bytes of the checks' series-name slices

	// replayMu serializes the clients' replays on the mirror, so the
	// counter deltas read around a direct call belong to that call.
	replayMu sync.Mutex
}

// openEnv creates the store directory (and the mirror's, when traced) and
// runs the workload's set-up, which opens the stores, and then serves the
// primary store over HTTP. The inputs are generated beforehand (see
// makeInputs), so set-up time is the store's and the server's alone.
func openEnv(wl *workload, seed int64, root string, in *inputs, traced bool) (*env, error) {
	dir, err := os.MkdirTemp(root, "run-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, seed: seed, dir: filepath.Join(dir, "primary"), in: in.fresh(), rec: newRecorder()}
	if traced {
		e.tr = newTracer()
		e.lay = newLayers()
		e.mdir = filepath.Join(dir, "mirror")
		e.idx = newBlockIndex(e.mdir)
	}
	if err := wl.setup(e); err != nil {
		e.close()
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	e.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = &http.Server{Handler: traceHandler(cameo.NewHandler(e.db, cameo.ServerOptions{}), e.tr)}
	go e.srv.Serve(e.ln)
	e.cl = newClient("http://" + e.ln.Addr().String())
	return e, nil
}

// open opens the primary store (and the mirror, when traced) with opts.
func (e *env) open(opts cameo.StoreOptions) error {
	e.opts = opts
	db, err := cameo.OpenStoreOptions(e.dir, opts)
	if err != nil {
		return err
	}
	e.db = db
	if e.mdir != "" {
		if e.mirror, err = cameo.OpenStoreOptions(e.mdir, opts); err != nil {
			return err
		}
	}
	return nil
}

// stores applies f to the primary store and, when traced, the mirror, so
// set-up builds both identically.
func (e *env) stores(f func(db *cameo.Store) error) error {
	if err := f(e.db); err != nil {
		return err
	}
	if e.mirror != nil {
		return f(e.mirror)
	}
	return nil
}

// reopen closes and reopens both stores with new options.
func (e *env) reopen(opts cameo.StoreOptions) error {
	if err := e.stores(func(db *cameo.Store) error { return db.Close() }); err != nil {
		return err
	}
	e.db, e.mirror = nil, nil
	return e.open(opts)
}

// close stops the server, closes the stores and deletes their files.
func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.cl != nil {
		e.cl.close()
	}
	if e.db != nil {
		e.db.Close()
	}
	if e.mirror != nil {
		e.mirror.Close()
	}
	os.RemoveAll(filepath.Dir(e.dir))
}

// traceHandler wraps the server so a traced request records a server span
// around ServeHTTP. The client names the op and server span IDs in a
// header; untraced requests pass straight through.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, id, ok := parseSpanHeader(r.Header.Get(spanHeader))
		start := time.Now()
		h.ServeHTTP(w, r)
		if ok {
			tr.add(span{ID: id, Parent: op, Op: op, Name: layerServer, Start: start, End: time.Now()})
		}
	})
}

const spanHeader = "X-Bench-Span"

func parseSpanHeader(v string) (op, id int64, ok bool) {
	a, b, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	id, err2 := strconv.ParseInt(b, 10, 64)
	return op, id, err1 == nil && err2 == nil
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// heapSampler records the live heap (bytes marked live) after every
// garbage collection while it runs, less what the benchmark itself holds
// at that moment (see env.bookkeeping).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64
}

func startHeapSampler(less func() int64) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var cycles uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[1].Value.Kind() == metrics.KindUint64 {
				if c := s[0].Value.Uint64(); c != cycles {
					cycles = c
					h.live = append(h.live, float64(int64(s[1].Value.Uint64())-less()))
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak: the 99th percentile of
// the readings, in MiB. A small heap is collected many times a second,
// and the live heap at each collection swings with the requests in
// flight, so the maximum is one extreme draw while the 99th percentile of
// thousands of readings repeats. With fewer than 100 readings it is the
// maximum.
func (h *heapSampler) finish() pctile {
	close(h.stop)
	<-h.done
	p := percentile(h.live, 0.99)
	p.Value /= 1 << 20
	return p
}

// bookkeeping is what the benchmark itself holds on the heap: the
// generated inputs, the recorded latencies and the sampled reads kept for
// verifyReads. The latter two grow with the number of operations, that is
// with the host's speed, and in doubling steps, so left in they would
// blur the program's own heap.
func (e *env) bookkeeping() int64 {
	e.checksMu.Lock()
	kept := int64(cap(e.checks))*int64(unsafe.Sizeof(readCheck{})) + e.checkNames
	e.checksMu.Unlock()
	return e.in.bytes + e.rec.bytes() + kept
}
