package workload

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
)

// sameDraws fails unless a and b draw the same blocks, bit for bit, at every
// length around the block size, and leave both their streams in one state.
func sameDraws(t *testing.T, what string, a, b *SensorGen) {
	t.Helper()
	var x, y stream.Block
	from := simtime.Time(90 * time.Minute)
	for _, n := range []int{0, 1, 1023, 1024, 1025, 20_000} {
		a.FillBlock(&x, n, from, 450*time.Millisecond)
		b.FillBlock(&y, n, from, 450*time.Millisecond)
		for i := range y.IDs {
			if x.IDs[i] != y.IDs[i] || math.Float64bits(x.Values[i]) != math.Float64bits(y.Values[i]) {
				t.Fatalf("%s n=%d event %d: (%d, %v) against (%d, %v)", what, n, i, x.IDs[i], x.Values[i], y.IDs[i], y.Values[i])
			}
		}
		from += simtime.Time(n) * simtime.Time(450*time.Millisecond)
	}
	if *a.r != *b.r || *a.vr != *b.vr {
		t.Fatalf("%s: the generators left their streams in different states", what)
	}
}

// TestAliasSlotSharesOneShape: two generators of one shape, whatever their
// prefixes and streams, draw through one alias table — the second build finds
// the first's in the slot — and each draws, generator state included, what a
// build with the slot emptied draws. The slot changes what is built, never
// what is drawn.
func TestAliasSlotSharesOneShape(t *testing.T) {
	optA := SensorOpts{Keys: 1200, Skew: 1.3, KeyPrefix: "A/"}
	optB := SensorOpts{Keys: 1200, Skew: 1.3, KeyPrefix: "B/", Mean: 3, Stddev: 1}
	lastAlias.Store(nil)
	a, b := NewSensorGen(rng.New(1), "A", optA), NewSensorGen(rng.New(2), "B", optB)
	if a.pop == b.pop || a.pop.zipf != b.pop.zipf || a.zipf == b.zipf {
		t.Fatalf("populations %p and %p over alias tables %p and %p: want two populations over one table",
			a.pop, b.pop, a.pop.zipf, b.pop.zipf)
	}
	for _, c := range []struct {
		name string
		gen  *SensorGen
		seed uint64
		opt  SensorOpts
	}{{"first", a, 1, optA}, {"second", b, 2, optB}} {
		lastAlias.Store(nil)
		fresh := NewSensorGen(rng.New(c.seed), cloud.SiteID(c.name), c.opt)
		if fresh.pop.zipf == a.pop.zipf {
			t.Fatalf("%s: a build with the slot emptied found the shared table", c.name)
		}
		sameDraws(t, c.name+" generator against a build with the slot emptied", c.gen, fresh)
	}
}

// TestAliasSlotKeepsOneTable: a build of another skewed shape replaces the
// slot's table, so the slot never keeps more than the last one; uniform
// builds have no table and leave the slot as it is.
func TestAliasSlotKeepsOneTable(t *testing.T) {
	lastAlias.Store(nil)
	first := NewSensorGen(rng.New(1), "A", SensorOpts{Keys: 500, Skew: 1.3})
	NewSensorGen(rng.New(2), "A", SensorOpts{Keys: 700})
	if got := lastAlias.Load(); got == nil || got.zipf != first.pop.zipf {
		t.Fatal("a uniform build changed the slot")
	}
	for _, opt := range []SensorOpts{{Keys: 501, Skew: 1.3}, {Keys: 500, Skew: 1.31}} {
		other := NewSensorGen(rng.New(3), "A", opt)
		got := lastAlias.Load()
		if other.pop.zipf == first.pop.zipf || got.zipf != other.pop.zipf || got.keys != opt.Keys || got.skew != opt.Skew {
			t.Fatalf("after a build of %+v the slot holds %d keys at skew %v: want that shape's own table", opt, got.keys, got.skew)
		}
	}
	again := NewSensorGen(rng.New(1), "A", SensorOpts{Keys: 500, Skew: 1.3})
	if again.pop.zipf == first.pop.zipf {
		t.Fatal("a replaced table was found again: the slot keeps more than one")
	}
	sameDraws(t, "rebuilt table", again, first.Sibling(rng.New(1), "A"))
}

// TestAliasSlotConcurrentBuilds: builds of two alternating shapes from
// several goroutines (run under -race) each draw what the shape's reference
// generator draws, whichever table the slot held when they looked.
func TestAliasSlotConcurrentBuilds(t *testing.T) {
	shapes := []SensorOpts{{Keys: 900, Skew: 1.3}, {Keys: 300, Skew: 1.7}}
	ref := make([]*SensorGen, len(shapes))
	for i, opt := range shapes {
		lastAlias.Store(nil)
		ref[i] = NewSensorGen(rng.New(uint64(10+i)), "R", opt)
	}
	const workers, builds = 4, 40
	gens := make([][]*SensorGen, workers)
	var wg sync.WaitGroup
	for w := range gens {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < builds; i++ {
				s := (w + i) % len(shapes)
				gens[w] = append(gens[w], NewSensorGen(rng.New(uint64(10+s)), "R", shapes[s]))
			}
		}(w)
	}
	wg.Wait()
	for w := range gens {
		for i, g := range gens[w] {
			s := (w + i) % len(shapes)
			sameDraws(t, fmt.Sprintf("worker %d build %d", w, i), g, ref[s].Sibling(rng.New(uint64(10+s)), "R"))
		}
	}
}

// TestAggWideBuildAllocs: agg_wide's 119 generators of 1 200 keys, each with
// its own prefix, allocate their key bytes and string headers, one alias
// table, and a small constant a generator — not a table each. The key text
// and the header list are allocated whole, so they round up to the next size
// class: at most an eighth more for allocations of their size.
func TestAggWideBuildAllocs(t *testing.T) {
	const gens, keys, perGen = 119, 1200, 512
	var before, after runtime.MemStats
	root := rng.New(1)
	runtime.ReadMemStats(&before)
	rng.NewZipf(root, 1.3, 1, keys-1)
	runtime.ReadMemStats(&after)
	table := after.TotalAlloc - before.TotalAlloc

	lastAlias.Store(nil)
	out := make([]*SensorGen, gens)
	streams := make([]*rng.Rand, gens)
	for i := range streams {
		streams[i] = root.Split(fmt.Sprint(i))
	}
	runtime.ReadMemStats(&before)
	for i := range out {
		site := cloud.GeneratedSiteID(i + 1)
		out[i] = NewSensorGen(streams[i], site, SensorOpts{Keys: keys, Skew: 1.3, KeyPrefix: string(site) + "/"})
	}
	runtime.ReadMemStats(&after)
	text := 0
	for _, g := range out {
		for id := 1; id <= g.Table().Len(); id++ {
			text += len(g.Table().Key(id))
		}
	}
	const header = 16 // a string header on a 64-bit platform
	lists := uint64(text + header*gens*keys)
	budget := lists + lists/8 + table + gens*perGen
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("%d generators of %d keys allocated %d B; %d B of keys and headers, one %d B table and %d B a generator are %d B",
			gens, keys, got, lists, table, perGen, budget)
	}
}
