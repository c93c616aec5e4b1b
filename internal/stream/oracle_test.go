package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
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

// TestCellIsSixteenBytes pins the layout the dense tables are sized by.
func TestCellIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n != 16 {
		t.Fatalf("a cell is %d bytes, want 16: a count and one accumulator", n)
	}
}

// The ops of FuzzCellMatchesFourFieldOracle's byte-string interpreter. Each
// is one byte, then its operands, one byte each.
const (
	opAdd         = iota // slot, n, seed: a burst as one block of interned IDs, onto a source-table slot
	opAddValue           // slot, n, seed: a burst of AddValues of any key, onto any slot
	opBlock              // n, seed: one block of a burst into the open window
	opClose              // slot: close the open window into a source-table slot
	opMerge              // dst, src: Merge one slot into another
	opMergeMapped        // src: MergeMapped into the sink slot through the spans
	opRestore            // from, to: AppendSnapshot of one slot, RestoreCell into a fresh one
	opReset              // slot: Reset one slot
	opCellCount
)

// The interpreter's four slots: two aggregates over the source table, one
// over the sink's (a union of three runs, as the engine's sink table is) and
// one map-backed.
const (
	slotSrc0, slotSrc1, slotSink, slotMap = 0, 1, 2, 3
	cellSlots                             = 4
)

// cellValue maps an operand byte to a value with the cases the old two-tier
// add told apart: NaN, both zeros, both infinities, an extreme that repeats,
// small integers (ties, zero crossings) and values spread over a range.
func cellValue(b byte) float64 {
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 40, 40, -40, -40}
	switch {
	case b < 27:
		return special[b%9]
	case b < 100:
		return float64(b%5) - 2
	default:
		return float64(b)*0.37 - 60
	}
}

// burst is the stream of n events an op's seed byte stands for: keys below
// universe and values from a xorshift over the seed. A few bytes fold enough
// events that merges meet the special values on keys that hold ordinary ones.
// Three keys draw from a set of their own, so that an extreme can be a zero
// or a NaN: key 2 only special values, key 3 nothing above zero (the sign of
// a zero maximum) and key 4 nothing below (the sign of a zero minimum). A
// quarter of the events go to these three.
func burst(seed byte, n, universe int) (keys []byte, vals []float64) {
	x := uint32(seed)*0x9e3779b1 | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k, b := byte(x%uint32(universe)), byte(x>>24)
		if x>>30 == 0 {
			k = 2 + byte(x>>8)%3
		}
		v := cellValue(b)
		switch k {
		case 2:
			v = cellValue(b % 27)
		case 3:
			v = []float64{0, math.Copysign(0, -1), -40, math.Inf(-1)}[b%4]
		case 4:
			v = []float64{0, math.Copysign(0, -1), 40, math.Inf(1)}[b%4]
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	return keys, vals
}

// cellScript writes rounds rounds of ops for the interpreter, about 20 bytes
// a round: a burst or two, a block, a close, two merges, a snapshot round
// trip every third round and a reset every fifth.
func cellScript(rnd *rand.Rand, kind AggKind, rounds int) []byte {
	b := func() byte { return byte(rnd.Intn(256)) }
	prog := []byte{byte(kind)}
	for r := 0; r < rounds; r++ {
		for n := rnd.Intn(2); n >= 0; n-- {
			prog = append(prog, byte(opAdd+rnd.Intn(2)), b(), b(), b())
		}
		prog = append(prog, opBlock, b(), b())
		prog = append(prog, opClose, b(), opMerge, b(), b(), opMergeMapped, b())
		if r%3 == 2 {
			prog = append(prog, opRestore, b(), b())
		}
		if r%5 == 4 {
			prog = append(prog, opReset, b())
		}
	}
	return prog
}

// FuzzCellMatchesFourFieldOracle interprets a byte string as a life of four
// aggregates of one kind (the first byte), each beside a four-field oracle,
// and requires the two-field cell to report, bit for bit, what the oracle
// reports after every op: every way in — AddBlock onto an aggregate that merges
// and restores filled, AddValue onto dense and ad-hoc keys, a window's blocks
// into an aggregate from an AggPool and its close, Merge over a shared
// table, from a foreign table and of ad-hoc map cells, MergeMapped through
// spans that cross key runs, AppendSnapshot → RestoreCell (the wire record
// checked against the oracle's fields), Reset — and every way out: Result, Value, TopK, Keys, the event
// count, SerializedBytes. Merging reads its argument only. The seeds are one
// ten-round script (cellScript) per kind, each of which must run every op.
func FuzzCellMatchesFourFieldOracle(f *testing.F) {
	var scripts [][]byte
	for kind := Count; kind <= Max; kind++ {
		scripts = append(scripts, cellScript(rand.New(rand.NewSource(int64(kind)+1)), kind, 10))
		f.Add(scripts[kind])
	}
	f.Add([]byte{byte(Min), opAddValue, 3, 1, 24, opAddValue, 3, 1, 5, opMerge, 0, 3, opRestore, 0, 2})
	key := func(b byte) string { return fmt.Sprintf("k%02d", int(b)%28) }
	// Keys 0–19 are in the source table; a different 16 (14–23 then 8–13,
	// plus strangers) in the sink's three runs, so that the two spans from
	// the source each cross a run; 24–27 are in neither.
	var srcKeys, sinkKeys []string
	for i := 0; i < 20; i++ {
		srcKeys = append(srcKeys, key(byte(i)))
	}
	for i := 0; i < 16; i++ {
		k := 14 + i
		if i >= 10 {
			k = i - 2
		}
		sinkKeys = append(sinkKeys, key(byte(k)))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		kind := AggKind(prog[0] % 5)
		sinkList := keyListOf(sinkKeys)
		src, sink := NewKeyTable(keyListOf(srcKeys)), NewKeyTable(sinkList.Slice(0, 5), sinkList.Slice(5, 11), sinkList.Slice(11, 16))
		remap := make([]int, src.Len()+1)
		for id := 1; id <= src.Len(); id++ {
			remap[id], _ = sink.Lookup(src.Key(id))
		}
		spans := spansOf(remap)
		fresh := func(slot int) *KeyedAgg {
			switch slot {
			case slotSink:
				return NewKeyedAggDense(kind, sink)
			case slotMap:
				return NewKeyedAgg(kind)
			}
			return NewKeyedAggDense(kind, src)
		}
		var aggs [cellSlots]*KeyedAgg
		var oracles [cellSlots]*oracleAgg
		for i := range aggs {
			aggs[i], oracles[i] = fresh(i), newOracleAgg(kind)
		}
		// The open window: an aggregate from the pool the source-table slots
		// go back to when a close replaces them.
		pool := NewAggPool(kind, src)
		win, oWin := pool.Get(), newOracleAgg(kind)

		i := 1
		next := func() byte {
			if i >= len(prog) {
				return 0
			}
			i++
			return prog[i-1]
		}
		check := func(op, slot int) {
			t.Helper()
			if err := matchesOracle(aggs[slot], oracles[slot]); err != nil {
				t.Fatalf("%v, op %d at byte %d, slot %d: %v", kind, op, i, slot, err)
			}
		}
		counts := make([]int, opCellCount)
		for ops := 0; i < len(prog) && ops < 2000; ops++ {
			op := int(next()) % opCellCount
			counts[op]++
			switch op {
			case opAdd:
				slot, n := int(next())%2, int(next())%32
				keys, vals := burst(next(), n, 20)
				blk := Block{Table: src}
				for j, k := range keys {
					blk.IDs, blk.Values = append(blk.IDs, int32(k)+1), append(blk.Values, vals[j])
					oracles[slot].add(key(k), vals[j])
				}
				aggs[slot].AddBlock(&blk)
				check(op, slot)
			case opAddValue:
				slot, n := int(next())%cellSlots, int(next())%32
				keys, vals := burst(next(), n, 28)
				for j, k := range keys {
					aggs[slot].AddValue(key(k), vals[j])
					oracles[slot].add(key(k), vals[j])
				}
				check(op, slot)
			case opBlock:
				blk := Block{Table: src}
				n := int(next()) % 64
				keys, vals := burst(next(), n, 20)
				for j, k := range keys {
					blk.IDs, blk.Values = append(blk.IDs, int32(k)+1), append(blk.Values, vals[j])
					oWin.add(key(k), vals[j])
				}
				win.AddBlock(&blk)
			case opClose:
				// The closed window takes the slot; the slot's old aggregate
				// goes to the pool and comes back cleared as the next window.
				slot := int(next()) % 2
				pool.Put(aggs[slot])
				aggs[slot], oracles[slot] = win, oWin
				win, oWin = pool.Get(), newOracleAgg(kind)
				check(op, slot)
				if win.Keys() != 0 || eventCount(win) != 0 {
					t.Fatalf("%v, op %d at byte %d: the pool handed out a window of %d keys", kind, op, i, win.Keys())
				}
			case opMerge:
				dst, from := int(next())%cellSlots, int(next())%cellSlots
				if dst == from {
					continue
				}
				aggs[dst].Merge(aggs[from])
				oracles[dst].merge(oracles[from])
				check(op, dst)
				check(op, from)
			case opMergeMapped:
				from := []int{slotSrc0, slotSrc1, slotMap}[next()%3]
				aggs[slotSink].MergeMapped(aggs[from], spans)
				oracles[slotSink].merge(oracles[from])
				check(op, slotSink)
				check(op, from)
			case opRestore:
				from, to := int(next())%cellSlots, int(next())%cellSlots
				snap := aggs[from].AppendSnapshot(nil)
				for _, kc := range snap {
					// The wire record: the count, the kind's field, zeros.
					oc := oracles[from].cells[kc.Key]
					want := KeyCell{Key: kc.Key, Count: oc.count}
					switch kind {
					case Min:
						want.Min = oc.min
					case Max:
						want.Max = oc.max
					default:
						want.Sum = oc.sum
					}
					for fi, fv := range [][2]float64{{kc.Sum, want.Sum}, {kc.Min, want.Min}, {kc.Max, want.Max}} {
						if kc.Count != want.Count || math.Float64bits(fv[0]) != math.Float64bits(fv[1]) {
							t.Fatalf("%v, op %d at byte %d: snapshot cell %+v, want %+v (field %d)", kind, op, i, kc, want, fi)
						}
					}
				}
				restored, o := fresh(to), newOracleAgg(kind)
				for _, kc := range snap {
					restored.RestoreCell(kc)
				}
				o.merge(oracles[from])
				aggs[to], oracles[to] = restored, o
				check(op, to)
			case opReset:
				slot := int(next()) % cellSlots
				aggs[slot].Reset()
				oracles[slot] = newOracleAgg(kind)
				check(op, slot)
			}
		}
		if !slices.ContainsFunc(scripts, func(s []byte) bool { return bytes.Equal(s, prog) }) {
			return
		}
		for op, n := range counts {
			if n == 0 {
				t.Errorf("the seeded %v script never ran op %d", kind, op)
			}
		}
	})
}
