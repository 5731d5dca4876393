package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names, outermost first. "op" is the client's round trip; the rest
// are the repository modules the benchmark times at their boundaries.
const (
	layerOp     = "op"
	layerServer = "server"
	layerTSDB   = "tsdb"
	layerCodec  = "codec"
	layerCore   = "core"
)

// replayedLayers are the layers an operation type is replayed through,
// below the server: a write seals blocks, so its replay reaches core; a
// read's stops at the codec.
func replayedLayers(kind string) []string {
	if kind == kindWrite {
		return []string{layerTSDB, layerCodec, layerCore}
	}
	return []string{layerTSDB, layerCodec}
}

// span is one timed call made by the benchmark into a layer. Spans of one
// operation share Op; Parent links a span to the layer call it stands
// under (0 for the op root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Op     int64     `json:"op"`
	Kind   string    `json:"kind"` // operation type of the op root: write, query, agg, batch
	Name   string    `json:"name"` // layer
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer records nothing, so untraced code paths call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// newID reserves a span ID, so a parent's ID can be handed to children
// before the parent span ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// unionLen is the total time covered by the spans' intervals, counting
// overlapping stretches once.
func unionLen(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	sorted := append([]span(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	var total time.Duration
	curS, curE := sorted[0].Start, sorted[0].End
	for _, s := range sorted[1:] {
		if s.Start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s.Start, s.End
			continue
		}
		if s.End.After(curE) {
			curE = s.End
		}
	}
	return total + curE.Sub(curS)
}

// attribution splits one operation's end-to-end time across layers.
// Self[layer] summed over layers plus Unattributed equals Total by
// construction (see attribute).
type attribution struct {
	Kind         string
	Total        time.Duration
	Self         map[string]time.Duration
	Replay       map[string]time.Duration // each layer's spans summed, uncapped
	Capped       bool                     // some span's children were cut down to fit it
	Unattributed time.Duration
}

// attribute computes self times for the span tree rooted at root. A span's
// self time is its duration minus the part its children cover; children
// that overlap each other cover their union, not their sum. Replayed
// layers are timed one after another rather than inside their parent, so
// the children's claim is capped at the parent's duration and shared
// among them in proportion to their durations. Each layer therefore claims
// at most what the layer above it left, and the layers plus the root's own
// leftover (the unattributed time) add up to the root's duration. Where a
// cap cut a claim, Capped is set; Replay keeps the uncapped durations.
func attribute(root span, children map[int64][]span) attribution {
	a := attribution{Kind: root.Kind, Total: root.dur(), Self: map[string]time.Duration{}, Replay: map[string]time.Duration{}}
	var walk func(s span, avail time.Duration)
	walk = func(s span, avail time.Duration) {
		kids := children[s.ID]
		union := unionLen(kids)
		if union > avail {
			a.Capped = true
		}
		cover := min(avail, union)
		self := avail - cover
		if s.ID == root.ID {
			a.Unattributed = self
		} else {
			a.Self[s.Name] += self
			a.Replay[s.Name] += s.dur()
		}
		if cover == 0 {
			return
		}
		var sum time.Duration
		for _, k := range kids {
			sum += k.dur()
		}
		given := time.Duration(0)
		for i, k := range kids {
			share := time.Duration(float64(cover) * float64(k.dur()) / float64(sum))
			if i == len(kids)-1 {
				share = cover - given // rounding remainder goes to the last child
			}
			given += share
			walk(k, share)
		}
	}
	walk(root, root.dur())
	return a
}

// attributeAll groups spans by operation and attributes every op root.
func attributeAll(spans []span) []attribution {
	children := map[int64][]span{}
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make([]attribution, 0, len(roots))
	for _, r := range roots {
		out = append(out, attribute(r, children))
	}
	return out
}
