package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"sage/internal/simtime"
)

// The reference: the accumulator the package used before a cell shrank to a
// count and the one number its kind reads. It keeps all four fields for every
// kind, through the two-tier add it had, and every kind reads its own field at
// the end. The cell must report, bit for bit, what this reports.

type oracleCell struct {
	count int64
	sum   float64
	min   float64
	max   float64
}

// add folds one value in. A value strictly inside the range seen so far moves
// neither extreme; an empty cell (min = max = 0) and a NaN extreme never pass
// that test.
func (c *oracleCell) add(v float64) {
	if v > c.min && v < c.max {
		c.count++
		c.sum += v
		return
	}
	c.addExtreme(v)
}

// addExtreme is add for a value that may be a new minimum or maximum.
func (c *oracleCell) addExtreme(v float64) {
	if c.count == 0 {
		c.min, c.max = v, v
	} else {
		if v < c.min || v != v || (v == 0 && c.min == 0 && math.Signbit(v)) {
			c.min = v
		}
		if v > c.max || v != v || (v == 0 && c.max == 0 && math.Signbit(c.max) && !math.Signbit(v)) {
			c.max = v
		}
	}
	c.count++
	c.sum += v
}

func (c *oracleCell) merge(o *oracleCell) {
	if o.count == 0 {
		return
	}
	if c.count == 0 {
		*c = *o
		return
	}
	c.min = math.Min(c.min, o.min)
	c.max = math.Max(c.max, o.max)
	c.count += o.count
	c.sum += o.sum
}

func (c *oracleCell) value(kind AggKind) float64 {
	switch kind {
	case Count:
		return float64(c.count)
	case Sum:
		return c.sum
	case Mean:
		if c.count == 0 {
			return 0
		}
		return c.sum / float64(c.count)
	case Min:
		return c.min
	case Max:
		return c.max
	default:
		panic(fmt.Sprintf("stream: unknown AggKind %d", kind))
	}
}

// oracleAgg is a keyed aggregate of four-field cells: one map, no tables.
type oracleAgg struct {
	kind  AggKind
	cells map[string]*oracleCell
}

func newOracleAgg(kind AggKind) *oracleAgg {
	return &oracleAgg{kind: kind, cells: make(map[string]*oracleCell)}
}

func (a *oracleAgg) cell(key string) *oracleCell {
	c := a.cells[key]
	if c == nil {
		c = &oracleCell{}
		a.cells[key] = c
	}
	return c
}

func (a *oracleAgg) add(key string, v float64) { a.cell(key).add(v) }

func (a *oracleAgg) merge(o *oracleAgg) {
	for k, oc := range o.cells {
		a.cell(k).merge(oc)
	}
}

func (a *oracleAgg) result() []KV {
	out := make([]KV, 0, len(a.cells))
	for k, c := range a.cells {
		out = append(out, KV{Key: k, Value: c.value(a.kind)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// topK ranks the way KeyedAgg.TopK does, from the same key-sorted start, so a
// NaN (which compares unequal to everything, itself included) lands where it
// lands there.
func (a *oracleAgg) topK(k int) []KV {
	all := a.result()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Key < all[j].Key
	})
	return all[:min(k, len(all))]
}

func (a *oracleAgg) events() int64 {
	var n int64
	for _, c := range a.cells {
		n += c.count
	}
	return n
}

func (a *oracleAgg) serializedBytes() int64 {
	var n int64
	for k := range a.cells {
		n += int64(len(k)) + 32
	}
	return n
}

// sameKVs compares rows bit for bit: NaN equals the same NaN, +0 is not -0.
func sameKVs(got, want []KV) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			return fmt.Errorf("row %d = %q %v (%#x), want %q %v (%#x)", i, got[i].Key, got[i].Value,
				math.Float64bits(got[i].Value), want[i].Key, want[i].Value, math.Float64bits(want[i].Value))
		}
	}
	return nil
}

// matchesOracle checks everything a caller can read off an aggregate.
func matchesOracle(a *KeyedAgg, o *oracleAgg) error {
	want := o.result()
	if err := sameKVs(a.Result(), want); err != nil {
		return fmt.Errorf("Result: %w", err)
	}
	for _, k := range []int{0, 1, 3, len(want), len(want) + 5} {
		if err := sameKVs(a.TopK(k), o.topK(k)); err != nil {
			return fmt.Errorf("TopK(%d): %w", k, err)
		}
	}
	for _, kv := range want {
		if v, ok := a.Value(kv.Key); !ok || math.Float64bits(v) != math.Float64bits(kv.Value) {
			return fmt.Errorf("Value(%q) = %v, %v; want %v", kv.Key, v, ok, kv.Value)
		}
	}
	if v, ok := a.Value("no such key"); ok || v != 0 {
		return fmt.Errorf("Value of an absent key = %v, %v", v, ok)
	}
	if a.Keys() != len(want) || eventCount(a) != o.events() || a.SerializedBytes() != o.serializedBytes() {
		return fmt.Errorf("Keys %d events %d SerializedBytes %d, want %d, %d, %d",
			a.Keys(), eventCount(a), a.SerializedBytes(), len(want), o.events(), o.serializedBytes())
	}
	return nil
}

// eventCount returns the number of events folded into a: its cells' counts.
func eventCount(a *KeyedAgg) int64 {
	var n int64
	for id := 1; id < len(a.dense); id++ {
		n += a.dense[id].count
	}
	for _, c := range a.cells {
		n += c.count
	}
	return n
}

// oracleWindows is WindowAgg over oracle aggregates: aggFor's bucketing (its
// last-window shortcut included — before time zero the shortcut and the
// modulo place an event differently, and the tests go there), the same
// watermark rule, a late event opens a fresh window for its start.
type oracleWindows struct {
	kind      AggKind
	width     simtime.Time
	open      map[simtime.Time]*oracleAgg
	lastStart simtime.Time
	last      *oracleAgg
}

func newOracleWindows(width time.Duration, kind AggKind) *oracleWindows {
	return &oracleWindows{kind: kind, width: simtime.Time(width), open: make(map[simtime.Time]*oracleAgg)}
}

func (w *oracleWindows) add(e Event) {
	if d := e.Time - w.lastStart; w.last == nil || d < 0 || d >= w.width {
		w.lastStart = e.Time - e.Time%w.width
		if w.open[w.lastStart] == nil {
			w.open[w.lastStart] = newOracleAgg(w.kind)
		}
		w.last = w.open[w.lastStart]
	}
	w.last.add(e.Key, e.Value)
}

// advance returns the aggregates of the windows the watermark closes, ordered
// by window start.
func (w *oracleWindows) advance(mark simtime.Time) []*oracleAgg {
	w.last = nil
	var starts []simtime.Time
	for s := range w.open {
		if s+w.width <= mark {
			starts = append(starts, s)
		}
	}
	slices.Sort(starts)
	var out []*oracleAgg
	for _, s := range starts {
		out = append(out, w.open[s])
		delete(w.open, s)
	}
	return out
}

// closedMatchOracle compares one Advance batch with the oracle's. Every kind
// reads its own field of the oracle's cells, so a kind that took another
// kind's fold loop fails here even when two implementations of the package
// agree with each other.
func closedMatchOracle(closed []Closed, want []*oracleAgg) error {
	if len(closed) != len(want) {
		return fmt.Errorf("closed %d windows, oracle %d", len(closed), len(want))
	}
	for i := range want {
		if err := matchesOracle(closed[i].Agg, want[i]); err != nil {
			return fmt.Errorf("window %v: %w", closed[i].Window, err)
		}
	}
	return nil
}

// TestCellIsSixteenBytes pins the layout the dense tables are sized by.
func TestCellIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n != 16 {
		t.Fatalf("a cell is %d bytes, want 16: a count and one accumulator", n)
	}
}

// oracleValues draws a value stream with the cases the old two-tier add told
// apart: NaN, both zeros, both infinities, an extreme that repeats, values
// inside and outside the range seen so far.
func oracleValues(rnd *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 40, 40, -40, -40}
	out := make([]float64, n)
	for i := range out {
		switch r := rnd.Intn(10); {
		case r == 0:
			out[i] = special[rnd.Intn(len(special))]
		case r < 3:
			out[i] = float64(rnd.Intn(5)) - 2 // small integers: ties, zero crossings
		default:
			out[i] = float64(rnd.Intn(2001))/25 - 40
		}
	}
	return out
}

// Property: for every kind, the two-field cell reports what the four-field
// oracle reports, bit for bit, through every way in — Add with an interned
// ID, AddValue onto dense and ad-hoc keys, AddBlock, Merge over a shared
// table, MergeMapped through a remap, Merge from a foreign table, Merge of
// ad-hoc map cells, AppendSnapshot → RestoreCell — and every way out: Result,
// Value, TopK, Keys, the event count, SerializedBytes. Some seeds confine the special
// values (NaN, ±0, ±Inf) to a few keys so that other keys see only finite
// ones; a fifth of the keys get exactly one event.
func TestPropertyCellMatchesFourFieldOracle(t *testing.T) {
	const width = 30 * time.Second
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		for seed := int64(1); seed <= 40; seed++ {
			rnd := rand.New(rand.NewSource(seed*7919 + int64(kind)))
			// Keys 0–19 are in the source table, a different 16 (in another
			// order, plus strangers) in the sink's; 24–27 are in neither.
			var srcKeys, sinkKeys []string
			for i := 0; i < 20; i++ {
				srcKeys = append(srcKeys, key(i))
			}
			for i := 23; i >= 8; i-- {
				sinkKeys = append(sinkKeys, key(i))
			}
			src, sink := NewKeyTableOf(srcKeys), NewKeyTableOf(sinkKeys)
			remap := make([]int, src.Len()+1)
			for id := 1; id <= src.Len(); id++ {
				remap[id], _ = sink.Lookup(src.Key(id))
			}
			single := make(map[int]bool) // keys that may receive only one event
			// draw yields the next (key, value) of a site's stream.
			vals := oracleValues(rnd, 4000)
			if seed%3 == 0 {
				for i := range vals { // finite values only, specials on one key below
					if v := vals[i]; v != v || math.IsInf(v, 0) {
						vals[i] = float64(i%7) - 3
					}
				}
			}
			next := 0
			draw := func(universe int) (int, float64) {
				for {
					k := rnd.Intn(universe)
					if k%5 == 4 {
						if single[k] {
							continue
						}
						single[k] = true
					}
					v := vals[next%len(vals)]
					next++
					if seed%3 == 0 && k == 2 {
						v = []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 0}[next%4]
					}
					return k, v
				}
			}
			check := func(what string, a *KeyedAgg, o *oracleAgg) {
				t.Helper()
				if err := matchesOracle(a, o); err != nil {
					t.Fatalf("%v seed %d, %s: %v", kind, seed, what, err)
				}
			}

			// Site 1: events with interned IDs, through Add.
			byAdd, oAdd := NewKeyedAggDense(kind, src), newOracleAgg(kind)
			for i, n := 0, rnd.Intn(120); i < n; i++ {
				k, v := draw(20)
				byAdd.Add(Event{Key: key(k), KeyID: k + 1, Value: v})
				oAdd.add(key(k), v)
			}
			check("Add", byAdd, oAdd)

			// Site 2: AddValue, dense and ad-hoc keys mixed.
			clear(single)
			byValue, oValue := NewKeyedAggDense(kind, src), newOracleAgg(kind)
			for i, n := 0, rnd.Intn(120); i < n; i++ {
				k, v := draw(28)
				byValue.AddValue(key(k), v)
				oValue.add(key(k), v)
			}
			check("AddValue", byValue, oValue)

			// Site 3: blocks inside one window, closed by the watermark.
			clear(single)
			w, oBlock := NewWindowAggDense(width, kind, src), newOracleAgg(kind)
			for b := 0; b < 3; b++ {
				blk := Block{Table: src, From: simtime.Time(b) * simtime.Time(time.Second), Step: time.Millisecond}
				for i, n := 0, rnd.Intn(60); i < n; i++ {
					k, v := draw(20)
					blk.IDs, blk.Values = append(blk.IDs, int32(k+1)), append(blk.Values, v)
					oBlock.add(key(k), v)
				}
				w.AddBlock(&blk)
			}
			w.AddBlock(&Block{Table: src, IDs: []int32{1}, Values: []float64{1}}) // never an empty window
			oBlock.add(key(0), 1)
			closed := w.Advance(simtime.Time(width))
			if len(closed) != 1 {
				t.Fatalf("%v seed %d: %d windows closed, want 1", kind, seed, len(closed))
			}
			byBlock := closed[0].Agg
			check("AddBlock", byBlock, oBlock)

			// Site 4: a map-backed aggregate — every cell ad hoc.
			clear(single)
			byMap, oMap := NewKeyedAgg(kind), newOracleAgg(kind)
			for i, n := 0, rnd.Intn(80); i < n; i++ {
				k, v := draw(28)
				byMap.AddValue(key(k), v)
				oMap.add(key(k), v)
			}
			check("map-backed AddValue", byMap, oMap)

			// A sink over its own table: remap, foreign table, ad-hoc cells.
			sinkAgg, oSink := NewKeyedAggDense(kind, sink), newOracleAgg(kind)
			sinkAgg.MergeMapped(byAdd, remap)
			oSink.merge(oAdd)
			check("MergeMapped into an empty sink", sinkAgg, oSink)
			sinkAgg.MergeMapped(byBlock, remap)
			oSink.merge(oBlock)
			check("MergeMapped into a sink holding cells", sinkAgg, oSink)
			sinkAgg.Merge(byValue) // foreign table, plus byValue's ad-hoc cells
			oSink.merge(oValue)
			check("Merge from a foreign table", sinkAgg, oSink)
			sinkAgg.Merge(byMap)
			oSink.merge(oMap)
			check("Merge of a map-backed aggregate", sinkAgg, oSink)

			// A second aggregate over the source table: the shared-table merge.
			shared, oShared := NewKeyedAggDense(kind, src), newOracleAgg(kind)
			shared.Merge(byBlock)
			shared.Merge(byAdd)
			shared.Merge(byValue)
			oShared.merge(oBlock)
			oShared.merge(oAdd)
			oShared.merge(oValue)
			check("Merge over a shared table", shared, oShared)
			// Merging reads its argument only.
			check("Add, after being merged from", byAdd, oAdd)

			// Snapshot → restore, into a dense aggregate over an unrelated
			// table and into a map-backed one; both then go on merging.
			snap := sinkAgg.AppendSnapshot(nil)
			for _, kc := range snap {
				// The wire record: the count, the kind's field, zeros.
				oc := oSink.cells[kc.Key]
				want := KeyCell{Key: kc.Key, Count: oc.count}
				switch kind {
				case Min:
					want.Min = oc.min
				case Max:
					want.Max = oc.max
				default:
					want.Sum = oc.sum
				}
				for i, f := range [][2]float64{{kc.Sum, want.Sum}, {kc.Min, want.Min}, {kc.Max, want.Max}} {
					if kc.Count != want.Count || math.Float64bits(f[0]) != math.Float64bits(f[1]) {
						t.Fatalf("%v seed %d: snapshot cell %+v, want %+v (field %d)", kind, seed, kc, want, i)
					}
				}
			}
			for name, r := range map[string]*KeyedAgg{"dense": NewKeyedAggDense(kind, src), "map": NewKeyedAgg(kind)} {
				for _, kc := range snap {
					r.RestoreCell(kc)
				}
				check("RestoreCell into a "+name+" aggregate", r, oSink)
				r.Merge(shared)
				o := newOracleAgg(kind)
				o.merge(oSink)
				o.merge(oShared)
				check("Merge after RestoreCell into a "+name+" aggregate", r, o)
			}
		}
	}
}
