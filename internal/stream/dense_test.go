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
		whole := KeyListOf(list)
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
	return NewKeyTable(KeyListOf(keys))
}

// denseEvents deterministically builds a mixed event sequence: most keys are
// the keys of table, a denseTable, a few are ad-hoc strings that exercise the
// map fallback, and raw drives values, timestamps, and duplicates.
func denseEvents(raw []uint16, table *KeyTable) []Event {
	events := make([]Event, len(raw))
	for i, r := range raw {
		e := Event{
			Value: float64(r%251)/3 - 40,
			Time:  simtime.Time(r%200) * simtime.Time(time.Second),
		}
		if i%7 == 3 {
			// Ad-hoc key: in no table, exercises the map path even inside
			// a dense aggregate.
			e.Key = fmt.Sprintf("adhoc-%d", r%4)
		} else {
			e.KeyID = int(r)%table.Len() + 1
			e.Key = table.Key(e.KeyID)
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
			table := denseTable()
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

// A stale KeyID — one that does not match the event's Key in the aggregate's
// table — must fall back to the string path, not corrupt another key's cell.
func TestDenseStaleKeyIDFallsBack(t *testing.T) {
	a := NewKeyedAggDense(Sum, NewKeyTable(KeyListOf([]string{"real"})))
	a.Add(Event{Key: "impostor", KeyID: 1, Value: 7})
	if v, ok := a.Value("impostor"); !ok || v != 7 {
		t.Fatalf("impostor value = %v,%v", v, ok)
	}
	if _, ok := a.Value("real"); ok {
		t.Fatal("stale KeyID credited the table's key")
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
		if x.Keys() != y.Keys() || eventCount(x) != eventCount(y) || x.SerializedBytes() != y.SerializedBytes() {
			return fmt.Errorf("window %v: keys %d/%d events %d/%d bytes %d/%d", a[i].Window,
				x.Keys(), y.Keys(), eventCount(x), eventCount(y), x.SerializedBytes(), y.SerializedBytes())
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
				table := denseTable()
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
				if len(batched.open) != len(single.open) {
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

// FuzzAddBlock: AddBlock(b) leaves a WindowAgg in the state AddBatch of b's
// materialised events does — rows, snapshots, key and event counts, wire
// size, bit for bit — for every kind, onto dense and map-backed aggregators,
// over blocks that are empty, sit inside one window, straddle one boundary or
// several (steps of 0, 1, 7, 31 and 95 s against 30 s windows), descend
// (folded event by event), start before time zero, arrive late after an
// Advance, or carry a foreign table: the same keys interned in another order
// plus one key the aggregate's table does not hold. Both sides are also held
// to the four-field oracle's windows, so each kind must have gone through a
// fold of its own: addColumns taking, say, the sum loop for Min would agree
// with nothing the oracle reads from its min field.
//
// kind%5 picks the aggregation and dense the table; each byte of shape is one
// block (its length, step and, every third byte, a watermark advance), every
// fourth block on the foreign table; seed draws starts, IDs and values. The
// corpus is 60 random (seed, shape) pairs for each kind × table.
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
	steps := []time.Duration{0, time.Second, 7 * time.Second, 31 * time.Second, 95 * time.Second, -3 * time.Second}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, kind uint8, dense bool) {
		k := AggKind(kind % 5)
		rnd := rand.New(rand.NewSource(seed))
		var ownKeys, foreignKeys []string
		for i := 0; i < 6; i++ {
			ownKeys = append(ownKeys, fmt.Sprintf("sensor-%04d", i))
			foreignKeys = append(foreignKeys, fmt.Sprintf("sensor-%04d", 5-i))
		}
		own, foreign := NewKeyTable(KeyListOf(ownKeys)), NewKeyTable(KeyListOf(append(foreignKeys, "elsewhere")))
		table := own
		if !dense {
			table = nil
		}
		blocked := NewWindowAggDense(30*time.Second, k, table)
		batched := NewWindowAggDense(30*time.Second, k, table)
		oracle := newOracleWindows(30*time.Second, k)
		same := func(mark simtime.Time) {
			a, b := blocked.Advance(mark), batched.Advance(mark)
			if err := sameAggs(a, b); err != nil {
				t.Fatalf("advance to %v: AddBlock vs AddBatch: %v", mark, err)
			}
			if err := closedMatchOracle(a, oracle.advance(mark)); err != nil {
				t.Fatalf("advance to %v: AddBlock vs the oracle: %v", mark, err)
			}
			for i := range a {
				if !slices.Equal(a[i].Agg.AppendSnapshot(nil), b[i].Agg.AppendSnapshot(nil)) {
					t.Fatalf("advance to %v: window %v snapshots differ", mark, a[i].Window)
				}
			}
		}
		var mark simtime.Time
		for i, sh := range shape {
			n := int(sh) % 40
			b := Block{Table: own, Step: steps[int(sh)%len(steps)], Site: "A"}
			if i%4 == 3 {
				b.Table = foreign
			}
			// Starts range from 100 s before time zero to 180 s: behind the
			// watermark once it has moved.
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
			if len(blocked.open) != len(batched.open) {
				t.Fatalf("block %d: %d open windows, AddBatch has %d", i, len(blocked.open), len(batched.open))
			}
			if sh%3 == 0 {
				mark += simtime.Time(sh) * simtime.Time(time.Second)
				same(mark)
			}
		}
		same(simtime.Time(time.Hour))
	})
}

// A block's IDs are trusted once its table is the aggregate's. An ID the
// table never issued must stop the fold, not land in another key's cell or in
// the unused cell 0.
func TestAddBlockRejectsIDsOutsideItsTable(t *testing.T) {
	table := NewKeyTable(KeyListOf([]string{"only"}))
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
			src := NewKeyTable(cutRuns(KeyListOf(append(srcKeys, late...)), int(cut)%4+1)...)
			sink := NewKeyTable(cutRuns(KeyListOf(sinkKeys), int(cut)/4%4+1)...)
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
	l := KeyListOf(keys)
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
