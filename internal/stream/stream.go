// Package stream provides SAGE's streaming-analysis primitives: events,
// columnar event blocks, key tables, keyed mergeable aggregations and
// tumbling windows.
//
// The geo-distributed setting imposes one structural requirement on every
// aggregation here: partial results computed independently at different
// sites must merge into the exact global result at the sink ("meta-reducer")
// site. All aggregate kinds in this package are commutative monoids under
// Merge, and the property tests assert it.
package stream

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"sage/internal/cloud"
	"sage/internal/simtime"
)

// Event is one stream record.
type Event struct {
	// Key partitions the aggregation (sensor id, gene id, ...).
	Key string
	// KeyID is Key's ID in the producer's KeyTable, or 0 when the key has
	// none. Aggregates built over the same table use it to index cells
	// directly instead of hashing Key; stages that rewrite Key must clear it
	// (stale IDs are detected and fall back to the string path).
	// An Event cannot say which table its ID came from, so that detection
	// compares key strings per event; a Block names its table and is checked
	// once (KeyedAgg.AddBlock).
	KeyID int
	// Value is the measurement.
	Value float64
	// Time is the event timestamp in virtual time.
	Time simtime.Time
	// Site is the datacenter where the event was produced.
	Site cloud.SiteID
}

// MapFunc transforms an event; returning false drops it (filter). What it
// returns is folded by key and value: the Time and Site it returns are not
// read.
type MapFunc func(Event) (Event, bool)

// AggKind selects the per-key aggregation function.
type AggKind int

// The supported keyed aggregations.
const (
	Count AggKind = iota
	Sum
	Mean
	Min
	Max
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Mean:
		return "mean"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// cell is the mergeable accumulator for one key: a count and the one number
// the aggregate's kind reads — the sum for Count, Sum and Mean, the minimum
// for Min, the maximum for Max. A cell does not know its kind; the aggregate
// that owns it does, and the loops that fold many cells (addColumns,
// mergeCells) are chosen by kind outside the loop.
type cell struct {
	count int64
	acc   float64
}

// below and above report whether v replaces the extreme m: branchy
// equivalents of math.Min(m, v) == v and math.Max(m, v) == v (including their
// NaN and ±0 behaviour) that inline, unlike the arch function calls.
func below(v, m float64) bool {
	return v < m || v != v || (v == 0 && m == 0 && math.Signbit(v))
}

func above(v, m float64) bool {
	return v > m || v != v || (v == 0 && m == 0 && math.Signbit(m) && !math.Signbit(v))
}

// add folds one value into a cell of the given kind.
func (c *cell) add(kind AggKind, v float64) {
	switch kind {
	case Min:
		if c.count == 0 || below(v, c.acc) {
			c.acc = v
		}
	case Max:
		if c.count == 0 || above(v, c.acc) {
			c.acc = v
		}
	default:
		c.acc += v
	}
	c.count++
}

// merge folds another cell of the same kind in.
func (c *cell) merge(kind AggKind, o *cell) {
	if o.count == 0 {
		return
	}
	if c.count == 0 {
		*c = *o
		return
	}
	switch kind {
	case Min:
		c.acc = math.Min(c.acc, o.acc)
	case Max:
		c.acc = math.Max(c.acc, o.acc)
	default:
		c.acc += o.acc
	}
	c.count += o.count
}

func (c *cell) value(kind AggKind) float64 {
	switch kind {
	case Count:
		return float64(c.count)
	case Sum, Min, Max:
		return c.acc
	case Mean:
		if c.count == 0 {
			return 0
		}
		return c.acc / float64(c.count)
	default:
		panic(fmt.Sprintf("stream: unknown AggKind %d", kind))
	}
}

// KeyedAgg is a per-key mergeable aggregate. Built plain (NewKeyedAgg) it
// hashes string keys into a map of cells; built over a KeyTable
// (NewKeyedAggDense) events carrying a valid KeyID aggregate into
// slice-indexed cells with no hashing and no per-key allocation, while
// ad-hoc keys outside the table still take the map path. Results are
// rendered identically either way: the same string keys, the same sorted
// order, the same float accumulation order per key.
type KeyedAgg struct {
	Kind  AggKind
	cells map[string]*cell // ad-hoc keys (always keys NOT in table)
	table *KeyTable        // non-nil enables the dense path
	dense []cell           // indexed by KeyID; dense[0] unused
	live  int              // dense cells with count > 0
}

// NewKeyedAgg returns an empty map-backed aggregate of the given kind.
func NewKeyedAgg(kind AggKind) *KeyedAgg {
	return &KeyedAgg{Kind: kind}
}

// NewKeyedAggDense returns an empty aggregate whose cells for keys interned
// in t are indexed by KeyID instead of hashed.
func NewKeyedAggDense(kind AggKind, t *KeyTable) *KeyedAgg {
	a := &KeyedAgg{Kind: kind, table: t}
	if t != nil {
		a.dense = make([]cell, t.cap())
	}
	return a
}

// Add folds one event into the aggregate.
func (a *KeyedAgg) Add(e Event) { a.add(&e) }

// add is the one cell update behind Add, AddBlock's event-by-event path and
// WindowAgg's Add and AddBatch; it takes the event by pointer so batch folds
// do not copy it per call.
func (a *KeyedAgg) add(e *Event) {
	if a.table != nil && e.KeyID > 0 && a.table.Key(e.KeyID) == e.Key {
		a.denseSlot(e.KeyID).add(a.Kind, e.Value)
		return
	}
	a.AddValue(e.Key, e.Value)
}

// AddValue folds a raw key/value pair.
func (a *KeyedAgg) AddValue(key string, v float64) { a.slot(key).add(a.Kind, v) }

// denseSlot returns the slice-indexed cell of an interned key for a caller
// about to fold into it: a cell still empty is counted live.
func (a *KeyedAgg) denseSlot(id int) *cell {
	c := &a.dense[id]
	if c.count == 0 {
		a.live++
	}
	return c
}

// slot is denseSlot by key string: the dense cell when the key is interned
// here, the ad-hoc map cell — made on first use — otherwise.
func (a *KeyedAgg) slot(key string) *cell {
	if a.table != nil {
		if id, ok := a.table.Lookup(key); ok {
			return a.denseSlot(id)
		}
	}
	c := a.cells[key]
	if c == nil {
		if a.cells == nil {
			a.cells = make(map[string]*cell)
		}
		c = &cell{}
		a.cells[key] = c
	}
	return c
}

// Merge folds another aggregate of the same kind into this one. Merging
// different kinds panics: it is a programming error that would silently
// corrupt results. The two sides need not share a table: cells migrate by
// string key, landing dense when this side knows the key and in the map
// otherwise. Per-key accumulation order is whatever the caller's merge
// order is, exactly as with the map-only path. Merge only reads o.
func (a *KeyedAgg) Merge(o *KeyedAgg) { a.MergeMapped(o, nil) }

// Span maps N consecutive IDs of one key table to N consecutive IDs of
// another that hold the same keys: ID From+i there is ID To+i here.
type Span struct{ From, To, N int }

// MergeMapped is Merge for a caller that already knows where o's interned
// keys live in this aggregate's table: spans, in ascending From order and
// disjoint, map runs of o's IDs to IDs here. The cells a span covers merge
// as two contiguous slices, with no string hashed; o's IDs no span covers
// and o's ad-hoc map cells take the string path, so the result is Merge's
// exactly. The spans must have been built from o's table to this
// aggregate's: they are trusted, not checked, which is the point of them.
// A map-backed o has no IDs for them to place.
func (a *KeyedAgg) MergeMapped(o *KeyedAgg, spans []Span) {
	if o == nil {
		return
	}
	if a.Kind != o.Kind {
		panic(fmt.Sprintf("stream: merging %v into %v", o.Kind, a.Kind))
	}
	if o.table == nil {
		spans = nil
	} else if o.table == a.table {
		// A shared table needs no spans: cells line up index for index.
		spans = []Span{{From: 1, To: 1, N: o.table.Len()}}
	}
	next := 1 // o's IDs below next are merged
	for _, sp := range spans {
		a.mergeByKey(o, next, sp.From)
		next = sp.From + sp.N
		a.mergeCells(a.dense[sp.To:sp.To+sp.N], o.dense[sp.From:next])
	}
	a.mergeByKey(o, next, len(o.dense))
	for k, oc := range o.cells {
		a.slot(k).merge(a.Kind, oc)
	}
}

// mergeByKey merges o's dense cells lo … hi-1 by their key strings.
func (a *KeyedAgg) mergeByKey(o *KeyedAgg, lo, hi int) {
	for id := lo; id < hi; id++ {
		if oc := &o.dense[id]; oc.count != 0 {
			a.slot(o.table.Key(id)).merge(a.Kind, oc)
		}
	}
}

// mergeCells folds src[i] into dst[i], skipping empty cells; a destination
// that is still empty takes the cell whole. One loop per accumulator, chosen
// here: no per-cell step asks the kind.
func (a *KeyedAgg) mergeCells(dst, src []cell) {
	dst = dst[:len(src)]
	live := a.live
	switch a.Kind {
	case Min:
		for i := range src {
			oc := &src[i]
			if oc.count == 0 {
				continue
			}
			if c := &dst[i]; c.count == 0 {
				live++
				*c = *oc
			} else {
				c.count += oc.count
				c.acc = math.Min(c.acc, oc.acc)
			}
		}
	case Max:
		for i := range src {
			oc := &src[i]
			if oc.count == 0 {
				continue
			}
			if c := &dst[i]; c.count == 0 {
				live++
				*c = *oc
			} else {
				c.count += oc.count
				c.acc = math.Max(c.acc, oc.acc)
			}
		}
	default:
		for i := range src {
			oc := &src[i]
			if oc.count == 0 {
				continue
			}
			if c := &dst[i]; c.count == 0 {
				live++
				*c = *oc
			} else {
				c.count += oc.count
				c.acc += oc.acc
			}
		}
	}
	a.live = live
}

// Reset clears every accumulated value while keeping the aggregate's kind,
// table, and allocated storage, leaving it indistinguishable from a freshly
// constructed one. AggPool.Get calls it on the aggregate it hands out.
func (a *KeyedAgg) Reset() {
	if a.live > 0 {
		clear(a.dense)
		a.live = 0
	}
	if len(a.cells) > 0 {
		clear(a.cells)
	}
}

// Keys returns the number of distinct keys.
func (a *KeyedAgg) Keys() int { return a.live + len(a.cells) }

// Value returns the aggregate value for one key (0 for absent keys, with
// ok=false).
func (a *KeyedAgg) Value(key string) (float64, bool) {
	if a.table != nil {
		if id, ok := a.table.Lookup(key); ok {
			if id < len(a.dense) && a.dense[id].count > 0 {
				return a.dense[id].value(a.Kind), true
			}
			return 0, false
		}
	}
	c, ok := a.cells[key]
	if !ok {
		return 0, false
	}
	return c.value(a.Kind), true
}

// Result returns all key values, deterministically sorted by key.
type KV struct {
	Key   string
	Value float64
}

// Result lists every key's aggregate value sorted by key.
func (a *KeyedAgg) Result() []KV {
	out := make([]KV, 0, a.live+len(a.cells))
	for r := range a.table.runs() {
		keys, cells := a.runCells(r)
		for i := range cells {
			if cells[i].count != 0 {
				out = append(out, KV{Key: keys.key(i), Value: cells[i].value(a.Kind)})
			}
		}
	}
	for k, c := range a.cells {
		out = append(out, KV{Key: k, Value: c.value(a.Kind)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TopK returns the k keys with the largest aggregate values, ties broken by
// key for determinism.
func (a *KeyedAgg) TopK(k int) []KV {
	all := a.Result()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Key < all[j].Key
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// SerializedBytes estimates the wire size of the aggregate's partial result:
// key bytes plus a fixed per-key record (count, sum, min, max as fixed64).
// It is the quantity SAGE ships between sites instead of raw events. A dense
// cell's key length is the difference of two of its run's offsets: the walk
// reads no key.
func (a *KeyedAgg) SerializedBytes() int64 {
	var n int64
	for r := range a.table.runs() {
		keys, cells := a.runCells(r)
		ends := keys.ends[:len(cells)+1]
		for i := range cells {
			if cells[i].count != 0 {
				n += int64(ends[i+1]-ends[i]) + 32
			}
		}
	}
	for k := range a.cells {
		n += int64(len(k)) + 32
	}
	return n
}

// runCells returns run r of the aggregate's table and the run's cells.
func (a *KeyedAgg) runCells(r int) (KeyList, []cell) {
	keys, first := a.table.run(r)
	return keys, a.dense[first : first+keys.Len()]
}

// KeyCell is one key's raw accumulator state — the unit of operator-state
// snapshot and restore used by the resilience subsystem, and the wire model
// of a partial: the fixed 32-byte record (count, sum, min, max as fixed64)
// that SerializedBytes prices and a checkpoint encodes per key. It is not the
// memory layout. An aggregate fills in Count and the one field its kind
// reads — Sum for Count, Sum and Mean, Min for Min, Max for Max — leaves the
// others zero, and reads back the same two, so a restored aggregate keeps
// merging exactly as the original would have.
type KeyCell struct {
	Key   string
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// field returns the field of the record that holds a kind's accumulator.
func (kc *KeyCell) field(kind AggKind) *float64 {
	switch kind {
	case Min:
		return &kc.Min
	case Max:
		return &kc.Max
	default:
		return &kc.Sum
	}
}

// keyCell renders the cell of a kind-kind aggregate as its wire record.
func (c *cell) keyCell(kind AggKind, key string) KeyCell {
	kc := KeyCell{Key: key, Count: c.count}
	*kc.field(kind) = c.acc
	return kc
}

// AppendSnapshot appends every key's raw accumulator to dst and returns the
// extended slice: dense cells in KeyID order, then ad-hoc map cells sorted by
// key. That is storage order — nothing is sorted but the (normally empty) map
// part — and it is as deterministic as the aggregate's table: two aggregates
// over tables of the same key list snapshot identically whatever order
// their events arrived in. RestoreCell does not depend on the order. A caller
// that snapshots repeatedly passes its previous result resliced to [:0] and,
// once that has grown to fit, allocates nothing.
func (a *KeyedAgg) AppendSnapshot(dst []KeyCell) []KeyCell {
	dst = slices.Grow(dst, a.live+len(a.cells))
	for r := range a.table.runs() {
		keys, cells := a.runCells(r)
		for i := range cells {
			if c := &cells[i]; c.count != 0 {
				dst = append(dst, c.keyCell(a.Kind, keys.key(i)))
			}
		}
	}
	adhoc := len(dst)
	for k, c := range a.cells {
		dst = append(dst, c.keyCell(a.Kind, k))
	}
	slices.SortFunc(dst[adhoc:], func(x, y KeyCell) int { return strings.Compare(x.Key, y.Key) })
	return dst
}

// RestoreCell folds one snapshot cell back in, as if the cell's original
// events had been merged here. Restoring into a non-empty aggregate merges.
func (a *KeyedAgg) RestoreCell(kc KeyCell) {
	a.slot(kc.Key).merge(a.Kind, &cell{count: kc.Count, acc: *kc.field(a.Kind)})
}

// AggPool keeps spent aggregates of one kind over one key table for reuse,
// so a stream of same-shaped windows runs without allocating (or zeroing) a
// fresh dense table per window. Put files an aggregate whose last reader is
// done with it; Get hands one back cleared, or builds a fresh one when the
// pool is empty. The clearing happens on Get, not Put: an aggregate filed
// away keeps its cells, unread, until it is reused, so the step that files it
// can still check what it held, and the clearing runs where the next window
// is filled (on a sharded engine, the parallel stage). A pool is not safe for
// concurrent use; its owner serialises Get and Put.
type AggPool struct {
	kind  AggKind
	table *KeyTable // nil: map-backed aggregates
	free  []*KeyedAgg
}

// NewAggPool returns an empty pool of kind-kind aggregates, dense over t when
// t is non-nil.
func NewAggPool(kind AggKind, t *KeyTable) *AggPool {
	return &AggPool{kind: kind, table: t}
}

// Get returns an empty aggregate: the last one Put, cleared, or a new one.
func (p *AggPool) Get() *KeyedAgg {
	n := len(p.free)
	if n == 0 {
		if p.table != nil {
			return NewKeyedAggDense(p.kind, p.table)
		}
		return NewKeyedAgg(p.kind)
	}
	a := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	a.Reset()
	return a
}

// Put files an aggregate for reuse. It must be of the pool's kind over the
// pool's table (anything else panics: a mismatched aggregate would corrupt
// the window that reuses it), and the caller must hold no reference to it:
// the next Get clears it and hands it to a new owner.
func (p *AggPool) Put(a *KeyedAgg) {
	if a.Kind != p.kind || a.table != p.table {
		panic(fmt.Sprintf("stream: pooling a %v aggregate in a %v pool of another table", a.Kind, p.kind))
	}
	if p.Holds(a) {
		panic("stream: aggregate pooled twice: two owners would share it")
	}
	p.free = append(p.free, a)
}

// Holds reports whether a is filed in the pool. The pool stays a handful of
// aggregates long, so the scan is short.
func (p *AggPool) Holds(a *KeyedAgg) bool { return slices.Contains(p.free, a) }

// Window is a half-open event-time interval [Start, End).
type Window struct {
	Start, End simtime.Time
}

// String renders "[10s,20s)".
func (w Window) String() string { return fmt.Sprintf("[%v,%v)", w.Start, w.End) }

// WindowAgg accumulates keyed aggregates per tumbling window and releases
// windows as a watermark advances — the site-local stage of a SAGE job.
type WindowAgg struct {
	Width time.Duration
	Kind  AggKind
	open  map[simtime.Time]*KeyedAgg
	// pool supplies every window's aggregate — dense over the aggregator's
	// table, if it has one — and takes spent ones back.
	pool *AggPool
	// last{Start,Agg} cache the most recent window so in-order event runs
	// skip the map lookup; invalidated on Advance.
	lastStart simtime.Time
	lastAgg   *KeyedAgg
	starts    []simtime.Time // Advance scratch, reused across calls
	// closedPool holds the slice Recycle took back: it backs the next Advance
	// result.
	closedPool []Closed
	// events is AddBlock's scratch for a descending block, which it folds
	// event by event.
	events []Event
}

// NewWindowAgg returns an empty windowed aggregator.
func NewWindowAgg(width time.Duration, kind AggKind) *WindowAgg {
	return NewWindowAggDense(width, kind, nil)
}

// NewWindowAggDense returns an empty windowed aggregator whose per-window
// aggregates index cells by KeyID for keys interned in t.
func NewWindowAggDense(width time.Duration, kind AggKind, t *KeyTable) *WindowAgg {
	if width <= 0 {
		panic("stream: window width must be positive")
	}
	return &WindowAgg{Width: width, Kind: kind, pool: NewAggPool(kind, t),
		open: make(map[simtime.Time]*KeyedAgg)}
}

// Recycle hands back a whole batch Advance returned, for a caller that is
// done with it at once: every aggregate goes to the aggregator's pool, and the
// slice backs the next Advance result. Only call it once per batch, and keep
// no reference to its aggregates.
func (w *WindowAgg) Recycle(batch []Closed) {
	for i := range batch {
		if a := batch[i].Agg; a != nil {
			w.pool.Put(a)
			batch[i] = Closed{}
		}
	}
	w.closedPool = batch[:0]
}

// Add folds an event into its window.
func (w *WindowAgg) Add(e Event) { w.aggFor(e.Time).add(&e) }

// AddBatch folds events into their windows, in order: the same result as
// calling Add on each, without copying every event through two calls. Events
// may straddle window boundaries or arrive late, exactly as with Add.
func (w *WindowAgg) AddBatch(evs []Event) {
	for i := range evs {
		e := &evs[i]
		w.aggFor(e.Time).add(e)
	}
}

// aggFor returns the open aggregate of the window containing t, opening it
// on first use.
func (w *WindowAgg) aggFor(t simtime.Time) *KeyedAgg {
	// In-window runs hit the cached window via a range check, skipping
	// the 64-bit modulo below entirely.
	if w.lastAgg != nil {
		if d := t - w.lastStart; d >= 0 && d < simtime.Time(w.Width) {
			return w.lastAgg
		}
	}
	start := t - (t % simtime.Time(w.Width))
	agg := w.open[start]
	if agg == nil {
		agg = w.pool.Get()
		w.open[start] = agg
	}
	w.lastStart, w.lastAgg = start, agg
	return agg
}

// Closed is an emitted window partial.
type Closed struct {
	Window Window
	Agg    *KeyedAgg
}

// Advance closes every window that ends at or before the watermark and
// returns them ordered by window start. Events older than the watermark
// arriving later open a fresh (late) window; SAGE treats those as late data.
func (w *WindowAgg) Advance(watermark simtime.Time) []Closed {
	// The cached window may close below; a late event for the same start
	// must then open a fresh window, not resurrect the closed aggregate.
	w.lastAgg = nil
	starts := w.starts[:0]
	for start := range w.open {
		if start+simtime.Time(w.Width) <= watermark {
			starts = append(starts, start)
		}
	}
	w.starts = starts
	if len(starts) == 0 {
		// Steady-state tick with nothing to close: no sort (whose
		// interface conversion would allocate), no result slice.
		return nil
	}
	if len(starts) > 1 {
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	}
	out := w.closedPool
	w.closedPool = nil
	if cap(out) >= len(starts) {
		out = out[:0]
	} else {
		out = make([]Closed, 0, len(starts))
	}
	for _, s := range starts {
		out = append(out, Closed{
			Window: Window{Start: s, End: s + simtime.Time(w.Width)},
			Agg:    w.open[s],
		})
		delete(w.open, s)
	}
	return out
}
