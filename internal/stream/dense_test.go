package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sage/internal/simtime"
)

func TestKeyTableInternLookup(t *testing.T) {
	kt := NewKeyTable()
	if kt.Len() != 0 {
		t.Fatalf("empty table Len = %d", kt.Len())
	}
	a := kt.Intern("alpha")
	b := kt.Intern("beta")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids = %d, %d; want distinct non-zero", a, b)
	}
	if kt.Intern("alpha") != a {
		t.Fatal("re-interning must return the same id")
	}
	if id, ok := kt.Lookup("alpha"); !ok || id != a {
		t.Fatalf("Lookup(alpha) = %d,%v", id, ok)
	}
	if _, ok := kt.Lookup("absent"); ok {
		t.Fatal("Lookup of an unknown key must report !ok")
	}
	if kt.Key(a) != "alpha" || kt.Key(b) != "beta" {
		t.Fatal("Key round-trip mismatch")
	}
	if kt.Key(0) != "" || kt.Key(-1) != "" || kt.Key(99) != "" {
		t.Fatal("out-of-range ids must map to the empty string")
	}
	if kt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", kt.Len())
	}
}

// FuzzKeyTable: a table built from a list of distinct keys, then interned
// into and looked up in in any interleaving, is the table that interned the
// list key by key and then did the same — the same ID from every Intern, the
// same answer from every Lookup, the same key under every ID — and it builds
// no index until a Lookup or Intern asks for one.
//
// ops[0] sizes the list, whose keys are the next bytes (repeats dropped);
// every later byte is one operation on key b&63: Intern for b < 0x80, Lookup
// for b < 0xc0, Key(b&63) otherwise.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0x80, 1, 0x45, 0xc0, 0xc3, 7})
	f.Add([]byte{0, 0x81, 5, 5, 0x85, 0xc1})
	f.Add([]byte{6, 9, 9, 4, 63, 0, 1, 0x7f, 0x3f, 0xbf, 0xff})
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
		want := NewKeyTable()
		for _, k := range list {
			want.Intern(k)
		}
		got := NewKeyTableOf(slices.Clone(list))
		if got.Len() != len(list) || got.Key(len(list)) != want.Key(len(list)) || got.ids != nil {
			t.Fatalf("built from %q: Len %d, last key %q, indexed %v", list, got.Len(), got.Key(len(list)), got.ids != nil)
		}
		asked := false
		for i, b := range ops[1+n:] {
			asked = asked || b < 0xc0
			switch k := key(b); {
			case b < 0x80:
				if g, w := got.Intern(k), want.Intern(k); g != w {
					t.Fatalf("op %d: Intern(%q) = %d, want %d", i, k, g, w)
				}
			case b < 0xc0:
				g, gok := got.Lookup(k)
				w, wok := want.Lookup(k)
				if g != w || gok != wok {
					t.Fatalf("op %d: Lookup(%q) = %d,%v, want %d,%v", i, k, g, gok, w, wok)
				}
			default:
				if g, w := got.Key(int(b&63)), want.Key(int(b&63)); g != w {
					t.Fatalf("op %d: Key(%d) = %q, want %q", i, b&63, g, w)
				}
			}
		}
		if got.Len() != want.Len() || (got.ids != nil) != asked {
			t.Fatalf("Len %d, want %d; indexed %v after %d ops", got.Len(), want.Len(), got.ids != nil, len(ops)-1-n)
		}
		for id := 0; id <= want.Len()+1; id++ {
			if got.Key(id) != want.Key(id) {
				t.Fatalf("Key(%d) = %q, want %q", id, got.Key(id), want.Key(id))
			}
		}
	})
}

// denseEvents deterministically builds a mixed event sequence: most keys are
// interned in the table, a few are ad-hoc strings that exercise the map
// fallback, and raw drives values, timestamps, and duplicates.
func denseEvents(raw []uint16, table *KeyTable) []Event {
	interned := make([]string, 5)
	ids := make([]int, 5)
	for i := range interned {
		interned[i] = fmt.Sprintf("sensor-%04d", i)
		ids[i] = table.Intern(interned[i])
	}
	events := make([]Event, len(raw))
	for i, r := range raw {
		e := Event{
			Value: float64(r%251)/3 - 40,
			Time:  simtime.Time(r%200) * simtime.Time(time.Second),
		}
		if i%7 == 3 {
			// Ad-hoc key: never interned, exercises the map path even
			// inside a dense aggregate.
			e.Key = fmt.Sprintf("adhoc-%d", r%4)
		} else {
			k := int(r) % len(interned)
			e.Key, e.KeyID = interned[k], ids[k]
		}
		events[i] = e
	}
	return events
}

func sameClosed(a, b []Closed) error {
	if len(a) != len(b) {
		return fmt.Errorf("closed %d vs %d windows", len(a), len(b))
	}
	for i := range a {
		if a[i].Window != b[i].Window {
			return fmt.Errorf("window %d: %v vs %v", i, a[i].Window, b[i].Window)
		}
		ra, rb := a[i].Agg.Result(), b[i].Agg.Result()
		if len(ra) != len(rb) {
			return fmt.Errorf("window %v: %d vs %d keys", a[i].Window, len(ra), len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return fmt.Errorf("window %v row %d: %+v vs %+v", a[i].Window, j, ra[j], rb[j])
			}
		}
	}
	return nil
}

// Property: for every aggregation kind, a dense (KeyID-indexed) tumbling
// aggregate and the plain string-map aggregate produce identical closed
// windows — same windows, same keys, same order, bit-identical values —
// for the same event sequence, and they are the windows of the four-field
// oracle, which computes every kind's number for every key: a kind that fell
// into another kind's fold on both sides alike would still fail.
func TestPropertyDenseMatchesMapTumbling(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		kind := kind
		f := func(raw []uint16) bool {
			table := NewKeyTable()
			events := denseEvents(raw, table)
			dense := NewWindowAggDense(30*time.Second, kind, table)
			plain := NewWindowAgg(30*time.Second, kind)
			oracle := newOracleWindows(30*time.Second, kind)
			for _, e := range events {
				dense.Add(e)
				me := e
				me.KeyID = 0 // force the string-map path
				plain.Add(me)
				oracle.add(e)
			}
			closed := dense.Advance(simtime.Time(time.Hour))
			return sameClosed(closed, plain.Advance(simtime.Time(time.Hour))) == nil &&
				closedMatchOracle(closed, oracle.advance(simtime.Time(time.Hour))) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("kind %v: %v", kind, err)
		}
	}
}

// Property: same equivalence for sliding windows, where each event lands in
// several overlapping windows.
func TestPropertyDenseMatchesMapSliding(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		kind := kind
		f := func(raw []uint16) bool {
			table := NewKeyTable()
			events := denseEvents(raw, table)
			win := NewSlidingWindows(30*time.Second, 10*time.Second)
			dense := NewSlidingAggDense(win, kind, table)
			plain := NewSlidingAgg(win, kind)
			for _, e := range events {
				dense.Add(e)
				me := e
				me.KeyID = 0
				plain.Add(me)
			}
			return sameClosed(dense.Advance(simtime.Time(time.Hour)), plain.Advance(simtime.Time(time.Hour))) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("kind %v: %v", kind, err)
		}
	}
}

// A stale KeyID — one that does not match the event's Key in the aggregate's
// table — must fall back to the string path, not corrupt another key's cell.
func TestDenseStaleKeyIDFallsBack(t *testing.T) {
	table := NewKeyTable()
	id := table.Intern("real")
	a := NewKeyedAggDense(Sum, table)
	a.Add(Event{Key: "impostor", KeyID: id, Value: 7})
	if v, ok := a.Value("impostor"); !ok || v != 7 {
		t.Fatalf("impostor value = %v,%v", v, ok)
	}
	if _, ok := a.Value("real"); ok {
		t.Fatal("stale KeyID credited the interned key")
	}
}

// Merging a dense aggregate into a map aggregate (and vice versa) must agree
// with merging the map aggregates — the cross-representation migration path.
func TestDenseMergeAcrossRepresentations(t *testing.T) {
	table := NewKeyTable()
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
					dst.Add(e)
				} else {
					src.Add(e)
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

// sameAggs compares two closed-window lists by everything a caller can
// observe of each aggregate: rows, key and event counts, wire size.
func sameAggs(a, b []Closed) error {
	if err := sameClosed(a, b); err != nil {
		return err
	}
	for i := range a {
		x, y := a[i].Agg, b[i].Agg
		if x.Keys() != y.Keys() || x.Events() != y.Events() || x.SerializedBytes() != y.SerializedBytes() {
			return fmt.Errorf("window %v: keys %d/%d events %d/%d bytes %d/%d", a[i].Window,
				x.Keys(), y.Keys(), x.Events(), y.Events(), x.SerializedBytes(), y.SerializedBytes())
		}
	}
	return nil
}

// Property: AddBatch(evs) leaves a WindowAgg in the state Add(ev) for each ev
// in order does — for every kind, dense and map-backed, over batches that
// straddle window boundaries, carry stale KeyIDs (a rewritten Key, an ID past
// the table) and ad-hoc keys, with watermark advances in between that make
// later events of earlier windows late.
func TestPropertyAddBatchMatchesAdd(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		for _, dense := range []bool{true, false} {
			f := func(raw []uint16, cuts []uint8) bool {
				table := NewKeyTable()
				events := denseEvents(raw, table)
				for i := range events {
					switch i % 11 {
					case 5: // Key rewritten, ID left behind
						events[i].Key = "rewritten"
					case 9: // ID no table ever issued
						events[i].KeyID = 1000 + i
					}
				}
				if !dense {
					table = nil
				}
				batched := NewWindowAggDense(30*time.Second, kind, table)
				single := NewWindowAggDense(30*time.Second, kind, table)
				for len(events) > 0 {
					n := len(events)
					if len(cuts) > 0 {
						n, cuts = min(n, int(cuts[0])%40), cuts[1:]
					}
					batched.AddBatch(events[:n])
					for _, e := range events[:n] {
						single.Add(e)
					}
					if n%3 == 0 {
						// Close what has ended by the batch's last event: any
						// earlier timestamp still to come is late data.
						var mark simtime.Time
						if n > 0 {
							mark = events[n-1].Time
						}
						if sameAggs(batched.Advance(mark), single.Advance(mark)) != nil {
							return false
						}
					}
					events = events[n:]
				}
				if batched.Open() != single.Open() {
					return false
				}
				return sameAggs(batched.Advance(simtime.Time(time.Hour)), single.Advance(simtime.Time(time.Hour))) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("kind %v dense %v: %v", kind, dense, err)
			}
		}
	}
}

// Property: AddBlock(b) leaves a WindowAgg in the state AddBatch of b's
// materialised events does — rows, snapshots, key and event counts, wire
// size, bit for bit — for every kind, onto dense and map-backed aggregators,
// over blocks that are empty, sit inside one window, straddle one boundary or
// several (steps of 0, 1, 7, 31 and 95 s against 30 s windows), descend
// (folded event by event), start before time zero, arrive late after an
// Advance, or carry a foreign table: the same keys interned in another order
// plus one key the aggregate's table has never seen. Both sides are also held
// to the four-field oracle's windows, so each kind must have gone through a
// fold of its own: addColumns taking, say, the sum loop for Min would agree
// with nothing the oracle reads from its min field.
func TestPropertyAddBlockMatchesAddBatch(t *testing.T) {
	steps := []time.Duration{0, time.Second, 7 * time.Second, 31 * time.Second, 95 * time.Second, -3 * time.Second}
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		for _, dense := range []bool{true, false} {
			f := func(seed int64, shape []uint8) bool {
				rnd := rand.New(rand.NewSource(seed))
				own, foreign := NewKeyTable(), NewKeyTable()
				for i := 0; i < 6; i++ {
					own.Intern(fmt.Sprintf("sensor-%04d", i))
					foreign.Intern(fmt.Sprintf("sensor-%04d", 5-i))
				}
				foreign.Intern("elsewhere")
				table := own
				if !dense {
					table = nil
				}
				blocked := NewWindowAggDense(30*time.Second, kind, table)
				batched := NewWindowAggDense(30*time.Second, kind, table)
				oracle := newOracleWindows(30*time.Second, kind)
				same := func(mark simtime.Time) bool {
					a, b := blocked.Advance(mark), batched.Advance(mark)
					if sameAggs(a, b) != nil || closedMatchOracle(a, oracle.advance(mark)) != nil {
						return false
					}
					for i := range a {
						if !slices.Equal(a[i].Agg.Snapshot(), b[i].Agg.Snapshot()) {
							return false
						}
					}
					return true
				}
				var mark simtime.Time
				for i := 0; len(shape) > 0; i++ {
					sh := shape[0]
					shape = shape[1:]
					n := int(sh) % 40
					b := Block{Table: own, Step: steps[int(sh)%len(steps)], Site: "A"}
					if i%4 == 3 {
						b.Table = foreign
					}
					// Starts range from 100 s before time zero to 180 s: behind
					// the watermark once it has moved.
					b.From = simtime.Time(rnd.Intn(280_000)-100_000) * simtime.Time(time.Millisecond)
					for j := 0; j < n; j++ {
						b.IDs = append(b.IDs, int32(rnd.Intn(b.Table.Len()))+1)
						b.Values = append(b.Values, float64(rnd.Intn(251))/3-40)
					}
					blocked.AddBlock(&b)
					events := b.AppendEvents(nil)
					batched.AddBatch(events)
					for _, e := range events {
						oracle.add(e)
					}
					if blocked.Open() != batched.Open() {
						return false
					}
					if sh%3 == 0 {
						mark += simtime.Time(sh) * simtime.Time(time.Second)
						if !same(mark) {
							return false
						}
					}
				}
				return same(simtime.Time(time.Hour))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Errorf("kind %v dense %v: %v", kind, dense, err)
			}
		}
	}
}

// A block's IDs are trusted once its table is the aggregate's. An ID the
// table never issued must stop the fold, not land in another key's cell or in
// the unused cell 0.
func TestAddBlockRejectsIDsOutsideItsTable(t *testing.T) {
	table := NewKeyTable()
	table.Intern("only")
	for _, id := range []int32{0, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddBlock folded ID %d of a one-key table", id)
				}
			}()
			w := NewWindowAggDense(30*time.Second, Sum, table)
			w.AddBlock(&Block{Table: table, IDs: []int32{id}, Values: []float64{1}})
		}()
	}
}

// Property: MergeMapped through a source→sink remap is Merge, cell for cell
// and bit for bit, for every kind — over source and sink tables interned in
// unrelated orders, with keys the sink never interned (remap 0: they land in
// its map), a source table that grew after the remap was built (IDs past its
// end: string path, dense or map at the sink as the key is known or not),
// ad-hoc map cells on the source side, and a destination that already holds
// cells. The merged-in aggregate is only read.
func TestPropertyMergeMappedMatchesMerge(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		kind := kind
		f := func(raw []uint16, pick uint64) bool {
			// pick decides, per key of a 24-key universe, whether the source
			// table holds it, whether the sink's does, and whether the source
			// interned it only after the remap was built.
			src, sink := NewKeyTable(), NewKeyTable()
			var late []string
			for i := 0; i < 24; i++ {
				bits := pick >> (2 * i) & 3
				if bits&1 != 0 {
					if i%5 == 4 {
						late = append(late, key(i))
					} else {
						src.Intern(key(i))
					}
				}
				if bits&2 != 0 {
					sink.Intern(key(23 - i)) // a different subset, in another order
				}
			}
			remap := make([]int, src.Len()+1)
			for id := 1; id <= src.Len(); id++ {
				remap[id], _ = sink.Lookup(src.Key(id))
			}
			for _, k := range late {
				src.Intern(k)
			}
			o := NewKeyedAggDense(kind, src)
			viaRemap, viaMerge := NewKeyedAggDense(kind, sink), NewKeyedAggDense(kind, sink)
			for i, r := range raw {
				// Keys outside the source table become ad-hoc map cells of o.
				k, v := key(int(r)%24), float64(r%251)/3-40
				if i%4 == 0 {
					viaRemap.AddValue(k, v)
					viaMerge.AddValue(k, v)
				} else {
					o.AddValue(k, v)
				}
			}
			before := o.Snapshot()
			viaRemap.MergeMapped(o, remap)
			viaMerge.Merge(o)
			return slices.Equal(viaRemap.Snapshot(), viaMerge.Snapshot()) &&
				slices.Equal(viaRemap.Result(), viaMerge.Result()) &&
				viaRemap.Keys() == viaMerge.Keys() &&
				slices.Equal(o.Snapshot(), before)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("kind %v: %v", kind, err)
		}
	}
}
