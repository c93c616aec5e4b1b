package workload

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sage/internal/cloud"
	"sage/internal/rng"
)

// TestKeyUnionMatchesInternInSourceOrder: the union KeyUnion builds without
// hashing is the table interning every generator's keys into one table, in
// source order, builds — the same key under every ID — and each remap is the
// IDs that interning handed back, for rosters whose generators share a
// prefix (nested lists), have their own (disjoint lists), appear more than
// once, or all of these. The prefixes include ones that look like a key. In
// "regrown" a prefix's population grows after other prefixes added theirs,
// so its keys sit in several runs of the union, apart. Every key the union
// holds is looked up to its ID too.
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
		"regrown": {
			gen(30, "a/"), gen(10, "b/"), gen(60, "a/"), gen(40, "b/"), gen(10, "a/"),
			gen(90, "a/"), gen(5, ""), gen(40, "b/"), gen(100, "b/"),
		},
	} {
		union, remaps := KeyUnion(gens)
		// Interning: each key gets the next ID at its first appearance.
		index := make(map[string]int)
		var want []string
		for i, g := range gens {
			tb := g.Table()
			ids := make([]int, tb.Len()+1)
			for id := 1; id <= tb.Len(); id++ {
				k := tb.Key(id)
				if index[k] == 0 {
					want = append(want, k)
					index[k] = len(want)
				}
				ids[id] = index[k]
			}
			if !slices.Equal(remaps[i], ids) {
				t.Fatalf("%s: source %d remap %v, interning gives %v", name, i, remaps[i], ids)
			}
		}
		if union.Len() != len(want) {
			t.Fatalf("%s: union holds %d keys, interning %d", name, union.Len(), len(want))
		}
		for id := 1; id <= len(want); id++ {
			if union.Key(id) != want[id-1] {
				t.Fatalf("%s: union key %d is %q, interning gives %q", name, id, union.Key(id), want[id-1])
			}
		}
		for _, id := range []int{-1, 0, len(want) + 1} {
			if k := union.Key(id); k != "" {
				t.Fatalf("%s: union key %d is %q, want none", name, id, k)
			}
		}
		for id, k := range want {
			if got, ok := union.Lookup(k); !ok || got != id+1 {
				t.Fatalf("%s: union Lookup(%q) = %d,%v, interning gives %d", name, k, got, ok, id+1)
			}
		}
	}
}

// TestKeyUnionCopiesNoKeys: the union of agg_wide's roster — 119 sources with
// prefixes of their own, 1 200 keys each — indexes the sources' key lists
// instead of copying them. Its allocations do not grow with the key count,
// and its bytes are the remaps' IDs (an int a key) with no string header (16
// bytes a key) on top.
func TestKeyUnionCopiesNoKeys(t *testing.T) {
	const sources = 119
	roster := func(keys int) []*SensorGen {
		gens := make([]*SensorGen, sources)
		for i := range gens {
			gens[i] = NewSensorGen(rng.New(uint64(i+1)), "A", SensorOpts{Keys: keys, KeyPrefix: fmt.Sprintf("s%03d/", i)})
		}
		return gens
	}
	small, large := roster(100), roster(1200)
	KeyUnion(large) // warm whatever the first call initialises
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	union, _ := KeyUnion(large)
	runtime.ReadMemStats(&after)
	if union.Len() != sources*1200 {
		t.Fatalf("union holds %d keys, want %d", union.Len(), sources*1200)
	}
	// The remaps are one []int of keys+1 a prefix; the rest is a few
	// hundred bytes a source (the run list, the maps) whatever the key count.
	const perSource = 512
	if got, ids := after.TotalAlloc-before.TotalAlloc, uint64(8*sources*(1200+1)); got > ids+perSource*sources {
		t.Fatalf("KeyUnion allocated %d B for %d keys; the remaps are %d B", got, union.Len(), ids)
	}
	if a, b := testing.AllocsPerRun(5, func() { KeyUnion(small) }), testing.AllocsPerRun(5, func() { KeyUnion(large) }); a != b {
		t.Fatalf("KeyUnion: %v allocations for %d × 100 keys, %v for %d × 1 200", a, sources, b, sources)
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
	// A byte a key of slack: allocations round up to size classes.
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
