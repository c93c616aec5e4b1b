package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies an instrument vector.
type Kind uint8

// The instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// cell is the storage behind one labelled series. Counters use n; gauges use
// bits (float64 bits); histograms use buckets + n (count) + bits (sum bits).
// Cells are heap-allocated once at registration and never move, so handles
// can hold raw pointers for the lifetime of the registry.
type cell struct {
	n       atomic.Int64
	bits    atomic.Uint64
	buckets []atomic.Int64
}

// Counter is a monotonically increasing integer series handle. The zero
// Counter is a valid no-op.
type Counter struct{ c *cell }

// Inc adds one.
func (c Counter) Inc() {
	if c.c != nil {
		c.c.n.Add(1)
	}
}

// Add adds n (n must be non-negative for Prometheus semantics; not checked
// on the hot path).
func (c Counter) Add(n int64) {
	if c.c != nil {
		c.c.n.Add(n)
	}
}

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.n.Load()
}

// Gauge is a last-value float series handle. The zero Gauge is a no-op.
type Gauge struct{ c *cell }

// Set stores v.
func (g Gauge) Set(v float64) {
	if g.c != nil {
		g.c.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g Gauge) Value() float64 {
	if g.c == nil {
		return 0
	}
	return math.Float64frombits(g.c.bits.Load())
}

// Histogram is a fixed-bucket distribution handle. The zero Histogram is a
// no-op.
type Histogram struct {
	c     *cell
	upper []float64
}

// Observe records v: one bucket increment (linear scan over the fixed upper
// bounds, which beats binary search at realistic bucket counts), the count,
// and a CAS-accumulated sum. Zero heap allocation.
func (h Histogram) Observe(v float64) {
	if h.c == nil {
		return
	}
	i := len(h.upper) // +Inf bucket
	for j, ub := range h.upper {
		if v <= ub {
			i = j
			break
		}
	}
	h.c.buckets[i].Add(1)
	h.c.n.Add(1)
	for {
		old := h.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h Histogram) Count() int64 {
	if h.c == nil {
		return 0
	}
	return h.c.n.Load()
}

// Sum returns the sum of observations.
func (h Histogram) Sum() float64 {
	if h.c == nil {
		return 0
	}
	return math.Float64frombits(h.c.bits.Load())
}

// vec is one named instrument family: a label space interned into dense IDs
// (the stream.KeyTable discipline) whose cells never move once allocated.
type vec struct {
	name, help string
	kind       Kind
	keys       []string
	upper      []float64 // histogram upper bounds, nil otherwise

	mu     sync.Mutex
	ids    map[string]int
	cells  []*cell
	labels [][]string // dense id -> label values
}

// labelSig joins label values into the interning key. \xff cannot appear in
// site/link labels, so the join is unambiguous.
func labelSig(vals []string) string { return strings.Join(vals, "\xff") }

// cell returns the cell of a label-value tuple, interning the tuple under
// the next dense ID on first use.
func (v *vec) cell(vals []string) *cell {
	if len(vals) != len(v.keys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", v.name, len(v.keys), len(vals)))
	}
	sig := labelSig(vals)
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[sig]; ok {
		return v.cells[id]
	}
	c := &cell{}
	if v.kind == KindHistogram {
		c.buckets = make([]atomic.Int64, len(v.upper)+1)
	}
	v.ids[sig] = len(v.cells)
	v.cells = append(v.cells, c)
	v.labels = append(v.labels, append([]string(nil), vals...))
	return c
}

// CounterVec is a counter family of a Registry.
type CounterVec struct{ v *vec }

// With resolves a label-value tuple to a Counter handle, interning it on
// first use. Resolution is the cold path; keep the handle.
func (cv CounterVec) With(vals ...string) Counter {
	return Counter{c: cv.v.cell(vals)}
}

// GaugeVec is a gauge family of a Registry.
type GaugeVec struct{ v *vec }

// With resolves a label-value tuple to a Gauge handle.
func (gv GaugeVec) With(vals ...string) Gauge {
	return Gauge{c: gv.v.cell(vals)}
}

// HistogramVec is a histogram family of a Registry.
type HistogramVec struct{ v *vec }

// With resolves a label-value tuple to a Histogram handle.
func (hv HistogramVec) With(vals ...string) Histogram {
	return Histogram{c: hv.v.cell(vals), upper: hv.v.upper}
}

// DefBuckets are general-purpose latency buckets in seconds.
var DefBuckets = []float64{0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Registry holds instrument vectors by name. Registration is idempotent:
// asking for an existing name returns the existing vector, and a kind or
// label-key mismatch panics — that is a programming error, not runtime
// input. A nil *Registry exports nothing.
type Registry struct {
	mu   sync.Mutex
	vecs map[string]*vec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vecs: make(map[string]*vec)}
}

func (r *Registry) register(name, help string, kind Kind, upper []float64, keys []string) *vec {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vecs[name]; ok {
		if v.kind != kind || len(v.keys) != len(keys) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s/%d labels (was %s/%d)",
				name, kind, len(keys), v.kind, len(v.keys)))
		}
		for i := range keys {
			if v.keys[i] != keys[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with label %q (was %q)", name, keys[i], v.keys[i]))
			}
		}
		return v
	}
	v := &vec{
		name: name, help: help, kind: kind,
		keys:  append([]string(nil), keys...),
		upper: append([]float64(nil), upper...),
		ids:   make(map[string]int),
	}
	r.vecs[name] = v
	return v
}

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, keys ...string) CounterVec {
	return CounterVec{v: r.register(name, help, KindCounter, nil, keys)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, keys ...string) GaugeVec {
	return GaugeVec{v: r.register(name, help, KindGauge, nil, keys)}
}

// Histogram registers (or finds) a histogram family with fixed upper bounds
// (ascending; +Inf is implicit). Nil buckets take DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, keys ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: metric %s buckets not ascending", name))
		}
	}
	return HistogramVec{v: r.register(name, help, KindHistogram, buckets, keys)}
}

// names returns the registered metric names sorted, for deterministic export.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.vecs))
	for name := range r.vecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup returns a registered vec by name.
func (r *Registry) lookup(name string) *vec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vecs[name]
}

// series is one exported (labels, cell) pair, sorted by label signature.
func (v *vec) series() (labels [][]string, cells []*cell) {
	v.mu.Lock()
	defer v.mu.Unlock()
	idx := make([]int, len(v.cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return labelSig(v.labels[idx[a]]) < labelSig(v.labels[idx[b]])
	})
	for _, i := range idx {
		labels = append(labels, v.labels[i])
		cells = append(cells, v.cells[i])
	}
	return labels, cells
}
