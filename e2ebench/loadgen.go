package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Operation types. Every HTTP call the load generators make is one of
// these, and each has its own latency distribution.
const (
	kindWrite = "write"
	kindQuery = "query" // one 512-sample window
	kindScan  = "scan"  // a multi-block raw scan, where readahead runs
	kindAgg   = "agg"
	kindBatch = "batch"
)

var opKinds = []string{kindWrite, kindQuery, kindScan, kindAgg, kindBatch}

// recorder accumulates the outcome of every operation: latencies per
// operation type (a failed or refused request records +Inf, so it misses
// every latency limit), attempts, failures and the reasons for the first
// few failures.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms
	attempted int
	failed    int
	refused   int
	reasons   []string

	respBytes   int64 // raw-read response body bytes (query and batch)
	respSamples int64 // samples those responses carried
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

// ok records a successful operation of the given type.
func (r *recorder) ok(kind string, d time.Duration) {
	r.mu.Lock()
	r.attempted++
	r.lat[kind] = append(r.lat[kind], ms(d))
	r.mu.Unlock()
}

// fail records a failed operation; it counts as attempted and failed and
// its latency is +Inf. HTTP 413 and 429 also count as refused.
func (r *recorder) fail(kind string, status int, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if isRefused(status) {
		r.refused++
	}
	if kind != "" {
		r.lat[kind] = append(r.lat[kind], math.Inf(1))
	}
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, reason)
	}
}

// checkFailed records an output check that did not hold: the operation
// already counted as attempted, so only the failure is added.
func (r *recorder) checkFailed(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, reason)
	}
}

// check records one standalone output check (one attempt).
func (r *recorder) check(ok bool, reason string) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if !ok {
		r.checkFailed(reason)
	}
}

func (r *recorder) addResponse(bytes, samples int) {
	r.mu.Lock()
	r.respBytes += int64(bytes)
	r.respSamples += int64(samples)
	r.mu.Unlock()
}

// bytes is the size of the recorded latencies' backing arrays.
func (r *recorder) bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, xs := range r.lat {
		n += int64(cap(xs)) * 8
	}
	return n
}

func (r *recorder) latencies(kind string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.lat[kind]...)
}

func (r *recorder) count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat[kind])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func isRefused(status int) bool {
	return status == http.StatusRequestEntityTooLarge || status == http.StatusTooManyRequests
}

// client issues the benchmark's HTTP requests. Its transport keeps at most
// two connections to the server, matching the two client goroutines.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpResult is one round trip: status, body and wall time. err is a
// transport error (no status).
type httpResult struct {
	status int
	body   []byte
	dur    time.Duration
	err    error
}

// do sends req, tagging it with the traced span IDs when hdr is set.
func (c *client) do(req *http.Request, hdr string) httpResult {
	if hdr != "" {
		req.Header.Set(spanHeader, hdr)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return httpResult{err: err, dur: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return httpResult{status: resp.StatusCode, body: body, dur: time.Since(start), err: err}
}

// lineBody renders a write batch in the line form "<series> <value>", each
// value in shortest round-trip form so the server parses the exact bits.
func lineBody(name string, vals []float64) []byte {
	b := make([]byte, 0, len(vals)*(len(name)+24))
	for _, v := range vals {
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

func (c *client) write(name string, vals []float64, hdr string) httpResult {
	req, _ := http.NewRequest(http.MethodPost, c.base+"/api/v1/write", bytes.NewReader(lineBody(name, vals)))
	req.Header.Set("Content-Type", "text/plain")
	return c.do(req, hdr)
}

func (c *client) query(name string, from, to int, hdr string) httpResult {
	q := url.Values{"series": {name}, "from": {strconv.Itoa(from)}, "to": {strconv.Itoa(to)}}
	req, _ := http.NewRequest(http.MethodGet, c.base+"/api/v1/query?"+q.Encode(), nil)
	return c.do(req, hdr)
}

func (c *client) agg(name string, from, to, step int, hdr string) httpResult {
	q := url.Values{"series": {name}, "from": {strconv.Itoa(from)}, "to": {strconv.Itoa(to)},
		"step": {strconv.Itoa(step)}, "aggfn": {"mean"}}
	req, _ := http.NewRequest(http.MethodGet, c.base+"/api/v1/query_agg?"+q.Encode(), nil)
	return c.do(req, hdr)
}

func (c *client) batch(names []string, from, to int, hdr string) httpResult {
	body, _ := json.Marshal(map[string]any{"series": names, "from": from, "to": to})
	req, _ := http.NewRequest(http.MethodPost, c.base+"/api/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, hdr)
}

func (c *client) scrape() httpResult {
	req, _ := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	return c.do(req, "")
}

// outcome classifies a round trip: nil for a 200, otherwise a reason.
func (h httpResult) outcome() error {
	if h.err != nil {
		return h.err
	}
	if h.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", h.status, bytes.TrimSpace(h.body[:min(len(h.body), 120)]))
	}
	return nil
}

// parseWriteAck checks a write acknowledgement reports n points.
func parseWriteAck(body []byte, n int) error {
	var ack struct {
		Points int `json:"points"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("write ack: %v", err)
	}
	if ack.Points != n {
		return fmt.Errorf("write ack: %d points acknowledged, %d sent", ack.Points, n)
	}
	return nil
}

// parseRaw decodes a single-series NDJSON raw-query body into the values
// it carries, in order, checking each chunk starts where the last ended.
func parseRaw(body []byte, from int) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		var line struct {
			Start  *int      `json:"start"`
			Values []float64 `json:"values"`
			Error  string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		if line.Error != "" {
			return nil, fmt.Errorf("in-body error: %s", line.Error)
		}
		if line.Start == nil || *line.Start != from+len(out) {
			return nil, fmt.Errorf("chunk start out of sequence")
		}
		out = append(out, line.Values...)
	}
	return out, sc.Err()
}

// parseAgg decodes a single-series aggregate body.
func parseAgg(body []byte) ([]float64, error) {
	var doc struct {
		Values []float64 `json:"values"`
	}
	err := json.Unmarshal(body, &doc)
	return doc.Values, err
}

// parseBatch decodes a batch raw-query body into per-series values in
// request order (sections may span several chunk lines).
func parseBatch(body []byte, names []string) ([][]float64, error) {
	out := make([][]float64, 0, len(names))
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	cur := -1
	last := ""
	for sc.Scan() {
		var line struct {
			Series string    `json:"series"`
			Values []float64 `json:"values"`
			Error  string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		if line.Error != "" {
			return nil, fmt.Errorf("series %q: %s", line.Series, line.Error)
		}
		// A new section starts whenever the series changes, or repeats
		// after the previous section is complete (duplicates are rare but
		// legal); the batch requests never repeat a name, so a name change
		// is the boundary.
		if cur < 0 || line.Series != last {
			cur++
			last = line.Series
			out = append(out, nil)
		}
		out[cur] = append(out[cur], line.Values...)
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("batch: %d sections for %d series", len(out), len(names))
	}
	return out, sc.Err()
}

// closedLoop runs clients goroutines, each issuing its next operation only
// after the previous one completes, from start until start+d. op gets the
// client number and its per-client operation index. It returns how many
// operations completed in each of the rateWindows equal stretches of d.
func closedLoop(clients int, start time.Time, d time.Duration, op func(client, i int)) []int {
	deadline := start.Add(d)
	var mu sync.Mutex
	done := make([]int, rateWindows)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i)
				if w := int(time.Since(start) * rateWindows / d); w < rateWindows {
					mu.Lock()
					done[w]++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return done
}

// openLoopSample is one scheduled operation: how late it started against
// its due time, and its latency measured from the due time (so a stall
// also charges every request it delayed).
type openLoopSample struct {
	Late    time.Duration
	Latency time.Duration
	Err     error
}

// openLoop issues n operations due every interval from start. One
// goroutine sends them in order: it waits for each due time, and when an
// earlier operation overran, the next one is sent as soon as it can be and
// its lateness is recorded — nothing is skipped, so the schedule never
// adapts to a slow system. now and sleep are injectable so the schedule
// arithmetic is testable.
func openLoop(n int, interval time.Duration, start time.Time, now func() time.Time,
	sleep func(time.Duration), op func(i int) error) []openLoopSample {
	out := make([]openLoopSample, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(now()); d > 0 {
			sleep(d)
		}
		sent := now()
		err := op(i)
		done := now()
		out = append(out, openLoopSample{Late: sent.Sub(due), Latency: done.Sub(due), Err: err})
	}
	return out
}
