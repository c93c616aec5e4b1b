package workload

import (
	"runtime"
	"slices"
	"testing"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/stream"
)

// TestKeyUnionMatchesInternInSourceOrder: the union KeyUnion builds without
// hashing is the table interning every generator's keys into one table, in
// source order, builds — the same key under every ID — and each remap is the
// IDs that interning handed back, for rosters whose generators share a
// prefix (nested lists), have their own (disjoint lists), appear more than
// once, or all of these. The prefixes include ones that look like a key.
func TestKeyUnionMatchesInternInSourceOrder(t *testing.T) {
	gen := func(keys int, prefix string) *SensorGen {
		return NewSensorGen(rng.New(uint64(keys)), "A", SensorOpts{Keys: keys, KeyPrefix: prefix})
	}
	shared := gen(40, "")
	for name, gens := range map[string][]*SensorGen{
		"nested":   {gen(50, ""), gen(120, ""), gen(20, ""), gen(120, "")},
		"disjoint": {gen(30, "NEU/"), gen(10, "WEU/"), gen(60, "NUS/")},
		"shared":   {shared, shared, shared},
		"mixed": {
			gen(30, "a/"), shared, gen(10, ""), gen(70, "a/"), shared,
			gen(5, "sensor-"), gen(12, "sensor-1"), gen(1000, ""), gen(3, "a/"),
		},
		"one": {gen(1, "")},
	} {
		union, remaps := KeyUnion(gens)
		want := stream.NewKeyTable()
		for i, g := range gens {
			tb := g.Table()
			ids := make([]int, tb.Len()+1)
			for id := 1; id <= tb.Len(); id++ {
				ids[id] = want.Intern(tb.Key(id))
			}
			if !slices.Equal(remaps[i], ids) {
				t.Fatalf("%s: source %d remap %v, interning gives %v", name, i, remaps[i], ids)
			}
		}
		if union.Len() != want.Len() {
			t.Fatalf("%s: union holds %d keys, interning %d", name, union.Len(), want.Len())
		}
		for id := 1; id <= want.Len(); id++ {
			if union.Key(id) != want.Key(id) {
				t.Fatalf("%s: union key %d is %q, interning gives %q", name, id, union.Key(id), want.Key(id))
			}
		}
	}
}

// TestNewSensorGenBuildsNoMap: a generator's table is its key list and
// nothing more — building one allocates the key buffer, the list of string
// headers and a constant, where a string → ID index would add more than 20
// bytes a key — and the table is addressable by ID at once.
func TestNewSensorGenBuildsNoMap(t *testing.T) {
	const keys = 100_000
	build := func() *SensorGen { return NewSensorGen(rng.New(3), cloud.NorthEU, SensorOpts{Keys: keys}) }
	build() // warm whatever the first call initialises
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := build()
	runtime.ReadMemStats(&after)
	keyBytes := 0
	for id := 1; id <= g.Table().Len(); id++ {
		keyBytes += len(g.Table().Key(id))
	}
	// A byte a key of slack: the buffer is sized by the longest key and
	// allocations round up to size classes.
	const header = 16 // a string header on a 64-bit platform
	if got, list := after.TotalAlloc-before.TotalAlloc, uint64(keyBytes+header*keys); got > list+keys {
		t.Fatalf("NewSensorGen allocated %d B for %d keys; the keys and their list are %d B", got, keys, list)
	}
	if small, large := testing.AllocsPerRun(5, func() {
		NewSensorGen(rng.New(3), cloud.NorthEU, SensorOpts{Keys: 1000})
	}), testing.AllocsPerRun(5, func() { build() }); small != large {
		t.Fatalf("NewSensorGen: %v allocations for 1 000 keys, %v for %d", small, large, keys)
	}
}
