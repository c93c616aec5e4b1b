package stream

import (
	"slices"
	"testing"
)

// These tests cover the snapshot/restore surface the resilience subsystem
// checkpoints through: KeyedAgg cells.

func TestKeyedAggSnapshotRestoreRoundTrip(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		a := NewKeyedAgg(kind)
		a.Add(Event{Key: "b", Value: 2})
		a.Add(Event{Key: "a", Value: 5})
		a.Add(Event{Key: "b", Value: 8})
		snap := a.AppendSnapshot(nil)
		// Map cells come out sorted by key: map iteration order must not
		// reach the serialization.
		for i := 1; i < len(snap); i++ {
			if snap[i-1].Key >= snap[i].Key {
				t.Fatalf("%v: snapshot not key-sorted: %+v", kind, snap)
			}
		}
		b := NewKeyedAgg(kind)
		for _, c := range snap {
			b.RestoreCell(c)
		}
		want, got := a.Result(), b.Result()
		if len(want) != len(got) {
			t.Fatalf("%v: restored %d keys, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%v: restored %+v, want %+v", kind, got[i], want[i])
			}
		}
	}
}

func TestKeyedAggSnapshotCoversDenseCells(t *testing.T) {
	a := NewKeyedAggDense(Sum, NewKeyTable(KeyListOf([]string{"hot"})))
	a.Add(Event{Key: "hot", KeyID: 1, Value: 3})
	a.Add(Event{Key: "cold", Value: 4}) // not in the table: map path
	snap := a.AppendSnapshot(nil)
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v, want both dense and map cells", snap)
	}
	b := NewKeyedAgg(Sum)
	for _, c := range snap {
		b.RestoreCell(c)
	}
	if got := b.Result(); len(got) != 2 {
		t.Fatalf("restore lost cells: %+v", got)
	}
}

func TestRestoreCellMergesIntoExisting(t *testing.T) {
	a := NewKeyedAgg(Sum)
	a.Add(Event{Key: "k", Value: 1})
	a.RestoreCell(KeyCell{Key: "k", Count: 2, Sum: 9, Min: 4, Max: 5})
	res := a.Result()
	if len(res) != 1 || res[0].Value != 10 {
		t.Fatalf("merge-restore = %+v, want sum 10", res)
	}
}

// TestRestoreCellSkipsEmptyCells: a cell of count 0 is no key. Restored
// into a dense aggregate over a two-key table or into a plain one, before or
// after a live cell, it leaves Keys, Result and the snapshot as the live
// cells alone leave them, for every kind.
func TestRestoreCellSkipsEmptyCells(t *testing.T) {
	tb := NewKeyTable(KeyListOf([]string{"a", "b"}))
	live := KeyCell{Key: "b", Count: 2, Sum: 6, Min: 1, Max: 5}
	for name, cells := range map[string][]KeyCell{
		"empty table key":          {{Key: "a"}},
		"empty ad-hoc key":         {{Key: "zz", Sum: 3}},
		"empty beside a live cell": {{Key: "a"}, live},
		"empty onto a live cell":   {live, {Key: "b", Min: -1, Max: 9}},
	} {
		for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
			want := NewKeyedAgg(kind)
			for _, c := range cells {
				if c.Count != 0 {
					want.RestoreCell(c)
				}
			}
			for _, a := range []*KeyedAgg{NewKeyedAggDense(kind, tb), NewKeyedAgg(kind)} {
				for _, c := range cells {
					a.RestoreCell(c)
				}
				res := a.Result()
				if a.Keys() != want.Keys() || len(res) != a.Keys() || !slices.Equal(res, want.Result()) {
					t.Fatalf("%s, %v: Keys %d, Result %+v; want %d, %+v", name, kind, a.Keys(), res, want.Keys(), want.Result())
				}
				if snap := a.AppendSnapshot(nil); len(snap) != a.Keys() {
					t.Fatalf("%s, %v: snapshot %+v for %d keys", name, kind, snap, a.Keys())
				}
			}
		}
	}
}

// snapshotFixtures are the three storage shapes AppendSnapshot walks: dense
// cells only, map cells only, and a dense aggregate that also holds ad-hoc
// keys its table does not know. The table holds its keys in an order that is
// not key order, and only some of them receive events.
func snapshotFixtures(kind AggKind) map[string]*KeyedAgg {
	tb := NewKeyTable(KeyListOf([]string{"m", "c", "x", "a", "q"}))
	dense := NewKeyedAggDense(kind, tb)
	plain := NewKeyedAgg(kind)
	mixed := NewKeyedAggDense(kind, tb)
	for i, k := range []string{"x", "a", "m", "x", "a", "x"} {
		v := float64(i*7%5) - 1.5
		dense.AddValue(k, v)
		plain.AddValue(k, v)
		mixed.AddValue(k, v)
	}
	for i, k := range []string{"zz", "b", "n", "b"} {
		v := float64(i) + 0.25
		plain.AddValue(k, v)
		mixed.AddValue(k, v)
	}
	return map[string]*KeyedAgg{"dense": dense, "map": plain, "mixed": mixed}
}

// TestAppendSnapshotRoundTrip: a snapshot restored cell by cell — into a
// plain aggregate and into a dense one over an unrelated table — gives the
// original Result for every kind and storage shape.
func TestAppendSnapshotRoundTrip(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		for name, a := range snapshotFixtures(kind) {
			snap := a.AppendSnapshot(nil)
			if len(snap) != a.Keys() {
				t.Fatalf("%v/%s: %d cells for %d keys", kind, name, len(snap), a.Keys())
			}
			other := NewKeyTable(KeyListOf([]string{"n", "x"}))
			for _, b := range []*KeyedAgg{NewKeyedAgg(kind), NewKeyedAggDense(kind, other)} {
				for _, c := range snap {
					b.RestoreCell(c)
				}
				if want, got := a.Result(), b.Result(); !slices.Equal(want, got) {
					t.Fatalf("%v/%s: restored %+v, want %+v", kind, name, got, want)
				}
			}
		}
	}
}

// TestAppendSnapshotStorageOrder pins the order checkpoints serialize in:
// dense cells by KeyID (the order of the table's key list, whatever order
// events arrived in), then ad-hoc map cells by key.
func TestAppendSnapshotStorageOrder(t *testing.T) {
	var keys []string
	for _, c := range snapshotFixtures(Sum)["mixed"].AppendSnapshot(nil) {
		keys = append(keys, c.Key)
	}
	if want := []string{"m", "x", "a", "b", "n", "zz"}; !slices.Equal(keys, want) {
		t.Fatalf("snapshot order = %v, want %v", keys, want)
	}
}

// TestAppendSnapshotReusesBuffer: appending into a caller's buffer gives the
// cells Snapshot gives, leaves what the buffer already held alone, and — the
// point of it — allocates nothing once the buffer fits, map cells included.
func TestAppendSnapshotReusesBuffer(t *testing.T) {
	for name, a := range snapshotFixtures(Mean) {
		want := a.AppendSnapshot(nil)
		// A buffer that last held some other, longer snapshot.
		buf := make([]KeyCell, 16)
		for i := range buf {
			buf[i] = KeyCell{Key: "stale", Count: 99}
		}
		buf = a.AppendSnapshot(buf[:0])
		if !slices.Equal(buf, want) {
			t.Fatalf("%s: into a reused buffer = %+v, want %+v", name, buf, want)
		}
		pre := KeyCell{Key: "kept", Count: 1}
		got := a.AppendSnapshot([]KeyCell{pre})
		if got[0] != pre || !slices.Equal(got[1:], want) {
			t.Fatalf("%s: append after a prefix = %+v", name, got)
		}
		if n := testing.AllocsPerRun(20, func() { buf = a.AppendSnapshot(buf[:0]) }); n != 0 {
			t.Fatalf("%s: %v allocs per snapshot into a buffer that fits, want 0", name, n)
		}
	}
}
