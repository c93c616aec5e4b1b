package workload

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/stream"
)

// TestKeyUnionMatchesInternInSourceOrder: the union KeyUnion builds without
// hashing is the table interning every generator's keys into one table, in
// source order, builds — the same key under every ID — and each generator's
// spans map its IDs to the IDs that interning handed back, in one span unless
// other keys came between its own, for rosters whose generators share a
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
		union, spans := KeyUnion(gens)
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
			if got := remapOf(t, spans[i], tb.Len()); !slices.Equal(got, ids) {
				t.Fatalf("%s: source %d spans %v map to %v, interning gives %v", name, i, spans[i], got, ids)
			}
			if name != "regrown" && name != "mixed" && len(spans[i]) != 1 {
				t.Fatalf("%s: source %d maps in %d spans, want one", name, i, len(spans[i]))
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

// remapOf expands spans over a table of n IDs into the ID each ID maps to
// (0: none), failing on spans out of order, overlapping or out of range.
func remapOf(t *testing.T, spans []stream.Span, n int) []int {
	t.Helper()
	remap := make([]int, n+1)
	next := 1
	for _, sp := range spans {
		if sp.From < next || sp.N <= 0 || sp.From+sp.N-1 > n || sp.To <= 0 {
			t.Fatalf("spans %v: %v is out of order or range over %d IDs", spans, sp, n)
		}
		for i := range sp.N {
			remap[sp.From+i] = sp.To + i
		}
		next = sp.From + sp.N
	}
	return remap
}

// TestKeyUnionCopiesNoKeys: the union of agg_wide's roster — 119 sources with
// prefixes of their own, 1 200 keys each — indexes the sources' key lists
// instead of copying them, and maps each source in by spans, not by an ID a
// key. Its allocations do not grow with the key count, and its bytes are a
// few hundred a source, none a key.
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
	union, spans := KeyUnion(large)
	runtime.ReadMemStats(&after)
	if union.Len() != sources*1200 {
		t.Fatalf("union holds %d keys, want %d", union.Len(), sources*1200)
	}
	for i, s := range spans {
		if len(s) != 1 {
			t.Fatalf("source %d maps in %d spans, want one", i, len(s))
		}
	}
	// The run list, the span lists and the prefix map, whatever the key count.
	const perSource = 512
	if got := after.TotalAlloc - before.TotalAlloc; got > perSource*sources {
		t.Fatalf("KeyUnion allocated %d B for %d sources of 1 200 keys, over %d B a source", got, sources, perSource)
	}
	if a, b := testing.AllocsPerRun(5, func() { KeyUnion(small) }), testing.AllocsPerRun(5, func() { KeyUnion(large) }); a != b {
		t.Fatalf("KeyUnion: %v allocations for %d × 100 keys, %v for %d × 1 200", a, sources, b, sources)
	}
}

// TestNewSensorGenBuildsNoMap: a generator's table is its key list and
// nothing more — building one allocates the key text, an offset a key and a
// constant, where a string → ID index would add more than 20 bytes a key —
// and the table is addressable by ID at once.
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
	const offset = 4 // a uint32 key offset
	if got, list := after.TotalAlloc-before.TotalAlloc, uint64(keyBytes+offset*keys); got > list+keys {
		t.Fatalf("NewSensorGen allocated %d B for %d keys; the key text and offsets are %d B", got, keys, list)
	}
	if small, large := testing.AllocsPerRun(5, func() {
		NewSensorGen(rng.New(3), cloud.NorthEU, SensorOpts{Keys: 1000})
	}), testing.AllocsPerRun(5, func() { build() }); small != large {
		t.Fatalf("NewSensorGen: %v allocations for 1 000 keys, %v for %d", small, large, keys)
	}
}

// TestSensorKeysArePointerFree: 20 000 keys are their text and an offset a
// key, in two allocations (size classes round each up), and neither holds a
// pointer: keeping the list alive adds nothing to the heap the collector
// scans, where a []string would add 16 bytes a key.
func TestSensorKeysArePointerFree(t *testing.T) {
	const keys = 20_000
	text := 10_000*len("sensor-0000") + (keys-10_000)*len("sensor-10000")
	sensorKeys("", keys) // warm whatever the first call initialises
	if n := testing.AllocsPerRun(5, func() { sensorKeys("", keys) }); n != 2 {
		t.Fatalf("sensorKeys made %v allocations for %d keys, want 2: the text and the offsets", n, keys)
	}
	scanned := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	runtime.GC()
	metrics.Read(scanned)
	before := scanned[0].Value.Uint64()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l := sensorKeys("", keys)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	metrics.Read(scanned)
	after := scanned[0].Value.Uint64()
	if l.Len() != keys {
		t.Fatalf("sensorKeys made %d keys, want %d", l.Len(), keys)
	}
	// Each of the two allocations rounds up by less than a page.
	if got, want := m1.TotalAlloc-m0.TotalAlloc, uint64(text+4*(keys+1)); got > want+2*8192 {
		t.Fatalf("sensorKeys allocated %d B for %d keys; their text and offsets are %d B", got, keys, want)
	}
	if after > before+keys {
		t.Fatalf("the collector scans %d B more with %d keys alive, want under a byte a key", after-before, keys)
	}
	runtime.KeepAlive(l)
}
