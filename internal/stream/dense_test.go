package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sage/internal/simtime"
)

// FuzzKeyTable: a table built from a list of distinct keys answers every
// Lookup and Key as the list does — the ID of a key is its position plus one,
// an absent key or an out-of-range ID has none — and it builds no index until
// a Lookup asks for one. The list is handed over whole or cut into runs with
// KeyList.Slice, as the sink's union table is built; the table must not tell
// the two apart.
//
// ops[0]'s low four bits size the list, whose keys are the next bytes
// (repeats dropped); its high four bits cut it into runs of that many keys (0:
// one run), with an empty run before each when they are 8 or more. Every later
// byte is one operation: Lookup of key b&63 for b < 0x80, Key(b&63) otherwise.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0x80, 1, 0x45, 0xc0, 0xc3, 7})
	f.Add([]byte{0, 0x81, 5, 5, 0x85, 0xc1})
	f.Add([]byte{6, 9, 9, 4, 63, 0, 1, 0x7f, 0x3f, 0xbf, 0xff})
	f.Add([]byte{0x27, 1, 2, 3, 4, 5, 6, 7, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 6, 0x43})
	f.Add([]byte{0x95, 10, 11, 12, 13, 14, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 14, 10})
	key := func(b byte) string { return fmt.Sprintf("k%02d", b&63) }
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := min(int(ops[0])%16, len(ops)-1)
		var list []string
		for _, b := range ops[1 : 1+n] {
			if !slices.Contains(list, key(b)) {
				list = append(list, key(b))
			}
		}
		whole := keyListOf(list)
		runs := []KeyList{whole}
		if stride := int(ops[0] >> 4); stride > 0 {
			runs = nil
			for i := 0; i < len(list); i += stride {
				if stride >= 8 {
					runs = append(runs, whole.Slice(i, i))
				}
				runs = append(runs, whole.Slice(i, min(i+stride, len(list))))
			}
		}
		got := NewKeyTable(runs...)
		if got.Len() != len(list) || got.ids != nil {
			t.Fatalf("built from %q: Len %d, indexed %v", list, got.Len(), got.ids != nil)
		}
		asked := false
		for i, b := range ops[1+n:] {
			if b < 0x80 {
				asked = true
				k := key(b)
				w := slices.Index(list, k) + 1
				if g, ok := got.Lookup(k); g != w || ok != (w > 0) {
					t.Fatalf("op %d: Lookup(%q) = %d,%v, want %d,%v", i, k, g, ok, w, w > 0)
				}
			} else if id := int(b & 63); got.Key(id) != listKey(list, id) {
				t.Fatalf("op %d: Key(%d) = %q, want %q", i, id, got.Key(id), listKey(list, id))
			}
		}
		if got.Len() != len(list) || (got.ids != nil) != asked {
			t.Fatalf("Len %d, want %d; indexed %v after %d ops", got.Len(), len(list), got.ids != nil, len(ops)-1-n)
		}
		for id := -1; id <= len(list)+1; id++ {
			if got.Key(id) != listKey(list, id) {
				t.Fatalf("Key(%d) = %q, want %q", id, got.Key(id), listKey(list, id))
			}
		}
	})
}

// keyListOf returns a list of keys, copied into one text.
func keyListOf(keys []string) KeyList {
	ends := []uint32{0}
	for _, k := range keys {
		ends = append(ends, ends[len(ends)-1]+uint32(len(k)))
	}
	return NewKeyList(strings.Join(keys, ""), ends)
}

// listKey is the key a table built from list holds under id, "" for none.
func listKey(list []string, id int) string {
	if id <= 0 || id > len(list) {
		return ""
	}
	return list[id-1]
}

// denseTable returns a table of the five keys denseEvents draws from.
func denseTable() *KeyTable {
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("sensor-%04d", i)
	}
	return NewKeyTable(keyListOf(keys))
}

// denseEvents deterministically builds a mixed key/value sequence: most keys
// are the keys of table, a denseTable, a few are ad-hoc strings that exercise
// the map fallback, and raw drives values and duplicates.
func denseEvents(raw []uint16, table *KeyTable) []KV {
	events := make([]KV, len(raw))
	for i, r := range raw {
		e := KV{Key: table.Key(int(r)%table.Len() + 1), Value: float64(r%251)/3 - 40}
		if i%7 == 3 {
			// Ad-hoc key: in no table, exercises the map path even inside
			// a dense aggregate.
			e.Key = fmt.Sprintf("adhoc-%d", r%4)
		}
		events[i] = e
	}
	return events
}

// sameAggs compares two aggregates by everything a caller can observe of
// them: rows bit for bit, snapshot, key and event counts, wire size.
func sameAggs(x, y *KeyedAgg) error {
	if err := sameKVs(x.Result(), y.Result()); err != nil {
		return err
	}
	if !slices.Equal(x.AppendSnapshot(nil), y.AppendSnapshot(nil)) {
		return fmt.Errorf("snapshots %v and %v", x.AppendSnapshot(nil), y.AppendSnapshot(nil))
	}
	if x.Keys() != y.Keys() || eventCount(x) != eventCount(y) || x.SerializedBytes() != y.SerializedBytes() {
		return fmt.Errorf("keys %d/%d events %d/%d bytes %d/%d",
			x.Keys(), y.Keys(), eventCount(x), eventCount(y), x.SerializedBytes(), y.SerializedBytes())
	}
	return nil
}

// Property: for every aggregation kind, a run of tumbling windows folded the
// way the engine's stage folds them — each window's events as blocks of IDs
// into an aggregate from one AggPool, put back once the window is read — and
// the plain string-map aggregate fed each window's keys and values by
// AddValue close identical windows (same keys, same order, bit-identical
// values), and they are the windows of the four-field oracle, which computes
// every kind's number for every key: a kind that fell into another kind's fold
// on both sides alike would still fail, and so would a pooled aggregate that
// kept a cell of the window before.
func TestPropertyDenseMatchesMapTumbling(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		f := func(raw []uint16, cuts []uint8) bool {
			table := denseTable()
			pool := NewAggPool(kind, table)
			for len(raw) > 0 {
				n := len(raw)
				if len(cuts) > 0 {
					n, cuts = min(n, int(cuts[0])%50), cuts[1:]
				}
				dense, plain, oracle := pool.Get(), NewKeyedAgg(kind), newOracleAgg(kind)
				b := Block{Table: table}
				for i, r := range raw[:n] {
					id, v := int(r)%table.Len()+1, float64(r%251)/3-40
					b.IDs, b.Values = append(b.IDs, int32(id)), append(b.Values, v)
					plain.AddValue(table.Key(id), v)
					oracle.add(table.Key(id), v)
					if i%8 == 7 || i == n-1 {
						dense.AddBlock(&b)
						b.IDs, b.Values = b.IDs[:0], b.Values[:0]
					}
				}
				if sameAggs(dense, plain) != nil || matchesOracle(dense, oracle) != nil {
					return false
				}
				pool.Put(dense)
				raw = raw[n:]
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("kind %v: %v", kind, err)
		}
	}
}

// A key the aggregate's table does not hold must fall back to the string
// path — its own map cell — not be credited to a table key's cell; and a
// block carrying a stale ID, one the table never issued, must not fold at all.
func TestDenseStaleKeyIDFallsBack(t *testing.T) {
	table := NewKeyTable(keyListOf([]string{"real"}))
	a := NewKeyedAggDense(Sum, table)
	a.AddValue("impostor", 7)
	a.AddBlock(&Block{Table: table, IDs: []int32{1}, Values: []float64{2}})
	if v, ok := a.Value("impostor"); !ok || v != 7 {
		t.Fatalf("impostor value = %v,%v", v, ok)
	}
	if v, ok := a.Value("real"); !ok || v != 2 {
		t.Fatalf("real value = %v,%v", v, ok)
	}
	before := a.AppendSnapshot(nil)
	if !panics(func() { a.AddBlock(&Block{Table: table, IDs: []int32{2}, Values: []float64{5}}) }) {
		t.Fatal("a stale ID folded")
	}
	if !slices.Equal(a.AppendSnapshot(nil), before) || a.Keys() != 2 {
		t.Fatalf("a refused block changed the aggregate: %v, %d keys", a.AppendSnapshot(nil), a.Keys())
	}
}

// Property: a batch of events cut at arbitrary points into blocks and folded
// by AddBlock leaves an aggregate in the state AddValue of each event, in
// order, leaves a reference — for every kind, against a dense reference over
// the same table and a map-backed one — with ad-hoc keys, which no block can
// carry, folded by AddValue on both sides between the blocks. Snapshots are
// compared sorted by key: a map-backed aggregate stores the ad-hoc keys in
// another order than a dense one.
func TestPropertyAddBatchMatchesAdd(t *testing.T) {
	byKey := func(a *KeyedAgg) []KeyCell {
		s := a.AppendSnapshot(nil)
		slices.SortFunc(s, func(x, y KeyCell) int { return strings.Compare(x.Key, y.Key) })
		return s
	}
	same := func(x, y *KeyedAgg) bool {
		return sameKVs(x.Result(), y.Result()) == nil && slices.Equal(byKey(x), byKey(y)) &&
			x.Keys() == y.Keys() && eventCount(x) == eventCount(y) && x.SerializedBytes() == y.SerializedBytes()
	}
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		for _, dense := range []bool{true, false} {
			f := func(raw []uint16, cuts []uint8) bool {
				table := denseTable()
				events := denseEvents(raw, table)
				batched, single := NewKeyedAggDense(kind, table), NewKeyedAgg(kind)
				if dense {
					single = NewKeyedAggDense(kind, table)
				}
				for len(events) > 0 {
					n := len(events)
					if len(cuts) > 0 {
						n, cuts = min(n, int(cuts[0])%40), cuts[1:]
					}
					b := Block{Table: table}
					flush := func() {
						batched.AddBlock(&b)
						b.IDs, b.Values = b.IDs[:0], b.Values[:0]
					}
					for _, e := range events[:n] {
						single.AddValue(e.Key, e.Value)
						if id, ok := table.Lookup(e.Key); ok {
							b.IDs, b.Values = append(b.IDs, int32(id)), append(b.Values, e.Value)
							continue
						}
						flush()
						batched.AddValue(e.Key, e.Value)
					}
					flush()
					if n%3 == 0 && !same(batched, single) {
						return false
					}
					events = events[n:]
				}
				return same(batched, single)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("kind %v dense %v: %v", kind, dense, err)
			}
		}
	}
}

// Merging a dense aggregate into a map aggregate (and vice versa) must agree
// with merging the map aggregates — the cross-representation migration path.
func TestDenseMergeAcrossRepresentations(t *testing.T) {
	table := denseTable()
	mk := func(densePart bool) *KeyedAgg {
		var a *KeyedAgg
		if densePart {
			a = NewKeyedAggDense(Sum, table)
		} else {
			a = NewKeyedAgg(Sum)
		}
		return a
	}
	for _, fromDense := range []bool{true, false} {
		for _, toDense := range []bool{true, false} {
			src, dst, want := mk(fromDense), mk(toDense), NewKeyedAgg(Sum)
			events := denseEvents([]uint16{3, 9, 14, 3, 200, 77, 9}, table)
			for i := range events {
				// Integer values add exactly, so the split-and-merge sum
				// matches the sequential sum bit for bit.
				events[i].Value = float64(int(events[i].Value))
			}
			for i, e := range events {
				want.AddValue(e.Key, e.Value)
				if i%2 == 0 {
					dst.AddValue(e.Key, e.Value)
				} else {
					src.AddValue(e.Key, e.Value)
				}
			}
			dst.Merge(src)
			wr, dr := want.Result(), dst.Result()
			if len(wr) != len(dr) {
				t.Fatalf("from=%v to=%v: %d vs %d keys", fromDense, toDense, len(dr), len(wr))
			}
			for i := range wr {
				if wr[i] != dr[i] {
					t.Fatalf("from=%v to=%v row %d: %+v vs %+v", fromDense, toDense, i, dr[i], wr[i])
				}
			}
		}
	}
}

// FuzzAddBlock: AddBlock(b) leaves an aggregate over b's table in the state
// AddValue of b's events' keys and values, in order, leaves a reference —
// rows, snapshots, key and event counts, wire size, bit for bit — for every
// kind, over blocks that are empty or up to 39 events long, onto cells that
// earlier blocks filled, whatever times the blocks carry (times are not
// read). A block over a foreign table — the same keys interned in another
// order plus one key the aggregate's table does not hold — panics and leaves
// the aggregate as it was: its IDs index another table's cells. Both sides are
// also held to the four-field oracle, so each kind must have gone through a
// fold of its own: addColumns taking, say, the sum loop for Min would agree
// with nothing the oracle reads from its min field.
//
// kind%5 picks the aggregation and dense the reference's storage: AddValue
// onto a dense aggregate over the same table, which finds each key's cell by
// its string, or onto a map-backed one. Each byte of shape is one block (its
// length, its step and, every third byte, a comparison), every fourth block
// on the foreign table; seed draws starts, IDs and values. The corpus is 60
// random (seed, shape) pairs for each kind × reference.
func FuzzAddBlock(f *testing.F) {
	gen := rand.New(rand.NewSource(1))
	for kind := uint8(0); kind < 5; kind++ {
		for _, dense := range []bool{true, false} {
			for i := 0; i < 60; i++ {
				shape := make([]byte, gen.Intn(50))
				gen.Read(shape)
				f.Add(gen.Int63(), shape, kind, dense)
			}
		}
	}
	steps := []time.Duration{0, time.Second, 31 * time.Second, -3 * time.Second}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, kind uint8, dense bool) {
		k := AggKind(kind % 5)
		rnd := rand.New(rand.NewSource(seed))
		var ownKeys, foreignKeys []string
		for i := 0; i < 6; i++ {
			ownKeys = append(ownKeys, fmt.Sprintf("sensor-%04d", i))
			foreignKeys = append(foreignKeys, fmt.Sprintf("sensor-%04d", 5-i))
		}
		own, foreign := NewKeyTable(keyListOf(ownKeys)), NewKeyTable(keyListOf(append(foreignKeys, "elsewhere")))
		blocked, ref, oracle := NewKeyedAggDense(k, own), NewKeyedAgg(k), newOracleAgg(k)
		if dense {
			ref = NewKeyedAggDense(k, own)
		}
		same := func(i int) {
			if err := sameAggs(blocked, ref); err != nil {
				t.Fatalf("block %d: AddBlock vs AddValue: %v", i, err)
			}
			if err := matchesOracle(blocked, oracle); err != nil {
				t.Fatalf("block %d: AddBlock vs the oracle: %v", i, err)
			}
		}
		for i, sh := range shape {
			n := int(sh) % 40
			b := Block{Table: own, Step: steps[int(sh)%len(steps)], Site: "A",
				From: simtime.Time(rnd.Intn(280_000)-100_000) * simtime.Time(time.Millisecond)}
			if i%4 == 3 {
				b.Table = foreign
			}
			for j := 0; j < n; j++ {
				b.IDs = append(b.IDs, int32(rnd.Intn(b.Table.Len()))+1)
				b.Values = append(b.Values, float64(rnd.Intn(251))/3-40)
			}
			if b.Table == foreign {
				before := blocked.AppendSnapshot(nil)
				if !panics(func() { blocked.AddBlock(&b) }) {
					t.Fatalf("block %d: a block over a foreign table folded", i)
				}
				if !slices.Equal(blocked.AppendSnapshot(nil), before) {
					t.Fatalf("block %d: a refused foreign block changed the aggregate", i)
				}
				continue
			}
			blocked.AddBlock(&b)
			for _, e := range b.AppendEvents(nil) {
				ref.AddValue(e.Key, e.Value)
				oracle.add(e.Key, e.Value)
			}
			if sh%3 == 0 {
				same(i)
			}
		}
		same(len(shape))
	})
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// A block's IDs are trusted once its table is the aggregate's. An ID the
// table never issued must stop the fold, not land in another key's cell or in
// the unused cell 0; and a block over any other table — even one holding the
// same key — or onto a map-backed aggregate must not fold at all.
func TestAddBlockRejectsIDsOutsideItsTable(t *testing.T) {
	keys := keyListOf([]string{"only"})
	table := NewKeyTable(keys)
	for _, id := range []int32{0, -1, 2} {
		if a := NewKeyedAggDense(Sum, table); !panics(func() { a.AddBlock(&Block{Table: table, IDs: []int32{id}, Values: []float64{1}}) }) {
			t.Errorf("AddBlock folded ID %d of a one-key table", id)
		}
	}
	twin := NewKeyTable(keys)
	for name, a := range map[string]*KeyedAgg{"another table": NewKeyedAggDense(Sum, twin), "map-backed": NewKeyedAgg(Sum)} {
		if !panics(func() { a.AddBlock(&Block{Table: table, IDs: []int32{1}, Values: []float64{1}}) }) || a.Keys() != 0 {
			t.Errorf("a block folded onto a %s aggregate: %d keys", name, a.Keys())
		}
	}
}

// Property: MergeMapped through source→sink spans is Merge, cell for cell
// and bit for bit, for every kind — over source and sink tables cut into runs
// (so spans cross runs on both sides) holding keys in rotated orders (so
// spans are several keys long), with keys the sink's table lacks (no span:
// they land in its map), source keys past every span (string path, dense or
// map at the sink as the key is known or not), ad-hoc map cells on the
// source side, and a destination that already holds cells. The merged-in
// aggregate is only read.
func TestPropertyMergeMappedMatchesMerge(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		kind := kind
		f := func(raw []uint16, pick uint64, rot, cut uint8) bool {
			// pick decides, per key of a 24-key universe, whether the source
			// table holds it, whether the sink's holds its rotation, and
			// whether the source holds it past every span.
			var srcKeys, late, sinkKeys []string
			for i := 0; i < 24; i++ {
				bits := pick >> (2 * i) & 3
				if bits&1 != 0 {
					if i%5 == 4 {
						late = append(late, key(i))
					} else {
						srcKeys = append(srcKeys, key(i))
					}
				}
				if bits&2 != 0 {
					sinkKeys = append(sinkKeys, key((i+int(rot))%24))
				}
			}
			src := NewKeyTable(cutRuns(keyListOf(append(srcKeys, late...)), int(cut)%4+1)...)
			sink := NewKeyTable(cutRuns(keyListOf(sinkKeys), int(cut)/4%4+1)...)
			remap := make([]int, len(srcKeys)+1)
			for id := 1; id <= len(srcKeys); id++ {
				remap[id], _ = sink.Lookup(src.Key(id))
			}
			o := NewKeyedAggDense(kind, src)
			viaSpans, viaMerge := NewKeyedAggDense(kind, sink), NewKeyedAggDense(kind, sink)
			for i, r := range raw {
				// Keys outside the source table become ad-hoc map cells of o.
				k, v := key(int(r)%24), float64(r%251)/3-40
				if i%4 == 0 {
					viaSpans.AddValue(k, v)
					viaMerge.AddValue(k, v)
				} else {
					o.AddValue(k, v)
				}
			}
			before := o.AppendSnapshot(nil)
			viaSpans.MergeMapped(o, spansOf(remap))
			viaMerge.Merge(o)
			return slices.Equal(viaSpans.AppendSnapshot(nil), viaMerge.AppendSnapshot(nil)) &&
				slices.Equal(viaSpans.Result(), viaMerge.Result()) &&
				viaSpans.Keys() == viaMerge.Keys() &&
				viaSpans.SerializedBytes() == viaMerge.SerializedBytes() &&
				slices.Equal(o.AppendSnapshot(nil), before)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("kind %v: %v", kind, err)
		}
	}
}

// cutRuns cuts a list into k runs of near-equal length, some empty when the
// list is shorter than k.
func cutRuns(l KeyList, k int) []KeyList {
	runs := make([]KeyList, k)
	for i := range runs {
		runs[i] = l.Slice(i*l.Len()/k, (i+1)*l.Len()/k)
	}
	return runs
}

// spansOf turns a per-ID remap (remap[id] is the ID in the other table, 0 for
// none) into the spans MergeMapped takes: one per run of consecutive IDs
// mapped to consecutive IDs.
func spansOf(remap []int) []Span {
	var spans []Span
	for id := 1; id < len(remap); id++ {
		to := remap[id]
		if to <= 0 {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1].From+spans[n-1].N == id && spans[n-1].To+spans[n-1].N == to {
			spans[n-1].N++
		} else {
			spans = append(spans, Span{From: id, To: to, N: 1})
		}
	}
	return spans
}

// TestRunWalkMatchesIDWalk: over a table of three runs, Result and
// AppendSnapshot, which step through the table run by run, list what a walk
// of every ID through Key lists, and SerializedBytes, which reads key lengths
// from the runs' offsets, sizes what that walk lists.
func TestRunWalkMatchesIDWalk(t *testing.T) {
	var keys []string
	for i := 0; i < 30; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", (i*7)%30))
	}
	l := keyListOf(keys)
	table := NewKeyTable(l.Slice(0, 4), l.Slice(4, 4), l.Slice(4, 19), l.Slice(19, 30))
	a := NewKeyedAggDense(Max, table)
	b := Block{Table: table}
	for id := 1; id <= table.Len(); id += 1 + id%3 {
		b.IDs, b.Values = append(b.IDs, int32(id)), append(b.Values, float64(id))
	}
	a.AddBlock(&b)
	a.AddValue("adhoc", 2)
	var snap []KeyCell
	var result []KV
	for id := 1; id <= table.Len(); id++ {
		if c := &a.dense[id]; c.count != 0 {
			snap = append(snap, c.keyCell(a.Kind, table.Key(id)))
			result = append(result, KV{Key: table.Key(id), Value: c.value(a.Kind)})
		}
	}
	snap = append(snap, KeyCell{Key: "adhoc", Count: 1, Max: 2})
	result = append(result, KV{Key: "adhoc", Value: 2})
	slices.SortFunc(result, func(x, y KV) int { return strings.Compare(x.Key, y.Key) })
	if got := a.AppendSnapshot(nil); !slices.Equal(got, snap) {
		t.Fatalf("AppendSnapshot %v, the ID walk gives %v", got, snap)
	}
	if got := a.Result(); !slices.Equal(got, result) {
		t.Fatalf("Result %v, the ID walk gives %v", got, result)
	}
	bytes := int64(0)
	for _, kc := range snap {
		bytes += int64(len(kc.Key)) + 32
	}
	if a.SerializedBytes() != bytes {
		t.Fatalf("SerializedBytes %d, the ID walk gives %d", a.SerializedBytes(), bytes)
	}
}
