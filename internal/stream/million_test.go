package stream

import (
	"fmt"
	"testing"
	"time"

	"sage/internal/simtime"
)

// millionTable holds 1<<20 keys — the dense plane's design point.
func millionTable(tb testing.TB) *KeyTable {
	tb.Helper()
	keys := make([]string, 1<<20)
	for i := range keys {
		keys[i] = fmt.Sprintf("sensor-%07d", i)
	}
	return NewKeyTable(KeyListOf(keys))
}

// TestMillionKeyDenseMatchesMap checks the dense KeyedAgg against the map
// fallback at 10^6 interned keys: identical values, counts and merge
// behavior when the same event stream is folded through both storages, with
// partials split across four dense aggregates and merged the way the engine
// sink does.
func TestMillionKeyDenseMatchesMap(t *testing.T) {
	if testing.Short() {
		t.Skip("million-key sweep is not short")
	}
	table := millionTable(t)
	n := table.Len()
	mapAgg := NewKeyedAgg(Mean)
	parts := make([]*KeyedAgg, 4)
	for i := range parts {
		parts[i] = NewKeyedAggDense(Mean, table)
	}
	// A multiplicative-walk key sequence touches ids across the whole
	// domain, hitting some keys repeatedly (exercising merge arithmetic).
	const events = 300000
	id := 1
	for i := 0; i < events; i++ {
		id = (id*48271 + i) % n
		key := table.Key(id + 1)
		ev := Event{Key: key, KeyID: id + 1, Value: float64(i%1000) / 7, Time: simtime.Time(i)}
		mapAgg.Add(ev)
		parts[i%len(parts)].Add(ev)
	}
	merged := NewKeyedAggDense(Mean, table)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Keys() != mapAgg.Keys() {
		t.Fatalf("dense merge has %d keys, map has %d", merged.Keys(), mapAgg.Keys())
	}
	if eventCount(merged) != eventCount(mapAgg) {
		t.Fatalf("dense merge has %d events, map has %d", eventCount(merged), eventCount(mapAgg))
	}
	// Spot-check values across the domain, including absent keys.
	for i := 0; i < n; i += 997 {
		key := table.Key(i + 1)
		dv, dok := merged.Value(key)
		mv, mok := mapAgg.Value(key)
		if dok != mok || dv != mv {
			t.Fatalf("key %s: dense (%v,%v) vs map (%v,%v)", key, dv, dok, mv, mok)
		}
	}
	if merged.SerializedBytes() != mapAgg.SerializedBytes() {
		t.Fatalf("serialized size diverges: dense %d, map %d",
			merged.SerializedBytes(), mapAgg.SerializedBytes())
	}
	dTop, mTop := merged.TopK(20), mapAgg.TopK(20)
	for i := range dTop {
		if dTop[i] != mTop[i] {
			t.Fatalf("TopK[%d]: dense %+v vs map %+v", i, dTop[i], mTop[i])
		}
	}
}

// TestMillionKeySteadyStateAllocs pins the alloc budget of the dense plane
// at 10^6 keys: once the cell slice exists, folding events and advancing
// the watermark allocates nothing.
func TestMillionKeySteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-key sweep is not short")
	}
	table := millionTable(t)
	n := table.Len()
	win := NewWindowAggDense(30*time.Second, Mean, table)
	// Prime one window so the pool holds a full-size dense aggregate.
	batch := make([]Event, 512)
	fill := func(base int) {
		for i := range batch {
			id := (base*31 + i*4099) % n
			batch[i] = Event{Key: table.Key(id + 1), KeyID: id + 1,
				Value: float64(i), Time: simtime.Time(base) * simtime.Time(30*time.Second)}
		}
	}
	fill(0)
	for _, ev := range batch {
		win.Add(ev)
	}
	win.Recycle(win.Advance(simtime.Time(30 * time.Second)))
	round := 1
	allocs := testing.AllocsPerRun(20, func() {
		fill(round)
		for _, ev := range batch {
			win.Add(ev)
		}
		round++
		win.Recycle(win.Advance(simtime.Time(round) * simtime.Time(30*time.Second)))
	})
	if allocs != 0 {
		t.Fatalf("steady-state dense pipeline allocates %.1f per window at 1M keys; budget is 0", allocs)
	}
}
