// Package codec defines the pluggable block-compression layer of the tsdb
// engine: a Codec turns a dense block of float64 samples into bytes and
// back, and a registry maps stable one-byte codec IDs (persisted in every
// block header) to implementations. The engine, facade, CLI, and benchmarks
// all select compressors through this one interface, so adding a method is
// one adapter plus a registration — no storage-layer changes.
//
// Adapters are provided for every compressor the repo implements: CAMEO
// itself (lossy, autocorrelation-preserving), the lossless XOR family
// (Gorilla, Chimp, Elf), and the pointwise-error-bounded lossy family
// (PMC, Swing, Sim-Piece). Lossless codecs reproduce input bit-exactly;
// lossy codecs trade pointwise or statistic fidelity for ratio, which the
// Lossy capability flag exposes so callers can refuse lossy storage for
// workloads that need exact replay.
package codec

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec compresses dense sample blocks. Implementations must be safe for
// concurrent use by multiple goroutines: the tsdb engine encodes blocks on
// a worker pool and decodes on every query goroutine.
type Codec interface {
	// Name is the codec's stable lowercase identifier ("cameo", "gorilla",
	// ...), used by CLI flags and facade lookups.
	Name() string
	// ID is the codec's stable one-byte identifier persisted in block
	// headers. IDs are forever: reusing or renumbering one corrupts every
	// store written with it.
	ID() uint8
	// Lossy reports whether decoding returns an approximation of the
	// encoded samples (true) or the exact values (false).
	Lossy() bool
	// Encode compresses one block of samples.
	Encode(xs []float64) ([]byte, error)
	// Decode reverses Encode. n is the sample count recorded alongside the
	// payload (block headers store it); implementations validate that the
	// payload actually yields n samples.
	Decode(data []byte, n int) ([]float64, error)

	// DecodeRange appends samples [lo, hi) of a block to dst (which may be
	// nil) and returns the extended slice, bit-identical to
	// Decode(payload, n)[lo:hi]; 0 <= lo <= hi <= n is required. sidecar
	// is the block's checkpoint section (nil when it has none). The int is
	// the number of compressed bits traversed: the bit-stream codecs seek
	// to the last checkpoint at or before lo and report what they replayed
	// (a nil sidecar replays from the front), the piecewise codecs evaluate
	// only the pieces spanning the range, ignore the sidecar, and report 0.
	DecodeRange(payload, sidecar []byte, n, lo, hi int, dst []float64) ([]float64, int, error)

	// DecodeWindowAggs folds samples [lo, hi) of a block into consecutive
	// step-sample windows without materializing them: window k covers the
	// intersection of [lo, hi) with [anchor+k*step, anchor+(k+1)*step), and
	// the window containing lo merges into aggs[0], the next into aggs[1],
	// and so on (merges, not overwrites, so one grid can span blocks).
	// anchor <= lo aligns the grid across blocks; aggs must hold every
	// window touching [lo, hi). Sidecar and the returned bit count are as
	// for DecodeRange. The piecewise codecs sum each piece in closed form,
	// so sums can differ from a left-to-right fold in the last few ulps;
	// counts, min, and max are exact.
	DecodeWindowAggs(payload, sidecar []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) (int, error)
}

// Registered codec IDs. ID 0 is reserved as invalid so a zeroed header
// never aliases a real codec.
const (
	IDCAMEO    uint8 = 1
	IDGorilla  uint8 = 2
	IDChimp    uint8 = 3
	IDElf      uint8 = 4
	IDPMC      uint8 = 5
	IDSwing    uint8 = 6
	IDSimPiece uint8 = 7
)

// ErrUnknownCodec is returned by registry lookups for unregistered IDs or
// names (e.g. a store written by a newer build with more codecs).
var ErrUnknownCodec = errors.New("codec: unknown codec")

var (
	regMu     sync.RWMutex
	regByID   = map[uint8]Codec{}
	regByName = map[string]Codec{}
)

// Register adds a codec to the global registry, panicking on ID or name
// collisions (registration is a program-wiring error, not a runtime
// condition). The built-in codecs register themselves; callers only need
// Register for out-of-tree implementations.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if c.ID() == 0 {
		panic("codec: ID 0 is reserved")
	}
	if prev, ok := regByID[c.ID()]; ok {
		panic(fmt.Sprintf("codec: ID %d already registered by %q", c.ID(), prev.Name()))
	}
	if _, ok := regByName[c.Name()]; ok {
		panic(fmt.Sprintf("codec: name %q already registered", c.Name()))
	}
	regByID[c.ID()] = c
	regByName[c.Name()] = c
}

// ByID resolves a block header's codec ID to a registered codec.
func ByID(id uint8) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := regByID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
	}
	return c, nil
}

// ByName resolves a codec name (as used by CLI flags) to a registered
// codec. The returned instance carries default parameters; parameterized
// codecs (CAMEO options, lossy error bounds) are usually constructed
// directly instead.
func ByName(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := regByName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, name)
	}
	return c, nil
}

// Names lists the registered codec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(regByName))
	for n := range regByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registered returns every registered codec, sorted by ID — the stable
// iteration order observability surfaces (per-codec decode histograms)
// key their instruments on.
func Registered() []Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Codec, 0, len(regByID))
	for _, c := range regByID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// MinBlocker is an optional Codec capability: codecs that cannot encode
// arbitrarily small blocks (CAMEO needs enough samples to estimate its
// statistic) report their minimum here. MinBlock consults it.
type MinBlocker interface {
	MinBlock() int
}

// MinBlock returns the smallest block length a codec can encode (1 when
// the codec imposes no minimum).
func MinBlock(c Codec) int {
	if mb, ok := c.(MinBlocker); ok {
		return mb.MinBlock()
	}
	return 1
}

func init() {
	Register(&CAMEO{})
	Register(Gorilla{})
	Register(Chimp{})
	Register(Elf{})
	Register(PMC{})
	Register(Swing{})
	Register(SimPiece{})
}
