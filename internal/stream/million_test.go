package stream

import (
	"fmt"
	"testing"
)

// millionTable holds 1<<20 keys — the dense plane's design point.
func millionTable(tb testing.TB) *KeyTable {
	tb.Helper()
	keys := make([]string, 1<<20)
	for i := range keys {
		keys[i] = fmt.Sprintf("sensor-%07d", i)
	}
	return NewKeyTable(keyListOf(keys))
}

// TestMillionKeyDenseMatchesMap checks the dense KeyedAgg against the map
// fallback at 10^6 interned keys: identical values, counts and merge
// behavior when the same event stream is folded through both storages — as
// blocks of IDs into four dense partials merged the way the engine sink does,
// and by key string into one map-backed aggregate.
func TestMillionKeyDenseMatchesMap(t *testing.T) {
	if testing.Short() {
		t.Skip("million-key sweep is not short")
	}
	table := millionTable(t)
	n := table.Len()
	mapAgg := NewKeyedAgg(Mean)
	parts := make([]*KeyedAgg, 4)
	blocks := make([]Block, len(parts))
	for i := range parts {
		parts[i] = NewKeyedAggDense(Mean, table)
		blocks[i].Table = table
	}
	// A multiplicative-walk key sequence touches ids across the whole
	// domain, hitting some keys repeatedly (exercising merge arithmetic).
	const events = 300000
	id := 1
	for i := 0; i < events; i++ {
		id = (id*48271 + i) % n
		v := float64(i%1000) / 7
		mapAgg.AddValue(table.Key(id+1), v)
		b := &blocks[i%len(parts)]
		b.IDs, b.Values = append(b.IDs, int32(id+1)), append(b.Values, v)
	}
	merged := NewKeyedAggDense(Mean, table)
	for i, p := range parts {
		p.AddBlock(&blocks[i])
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
// at 10^6 keys: once the pool holds a cell slice, a window taken from the
// pool, folded a block at a time and put back allocates nothing.
func TestMillionKeySteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-key sweep is not short")
	}
	table := millionTable(t)
	n := table.Len()
	pool := NewAggPool(Mean, table)
	b := Block{Table: table, IDs: make([]int32, 512), Values: make([]float64, 512)}
	round := 0
	window := func() {
		for i := range b.IDs {
			b.IDs[i] = int32((round*31+i*4099)%n) + 1
			b.Values[i] = float64(i)
		}
		a := pool.Get()
		a.AddBlock(&b)
		pool.Put(a)
		round++
	}
	// Prime one window so the pool holds a full-size dense aggregate.
	window()
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("steady-state dense pipeline allocates %.1f per window at 1M keys; budget is 0", allocs)
	}
}
