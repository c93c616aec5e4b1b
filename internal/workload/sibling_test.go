package workload

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
)

// siblingShapes are the three kinds of population a roster asks for: Zipf
// keys, uniform keys, and a prefixed key list with its own value law.
var siblingShapes = map[string]SensorOpts{
	"zipf":     {Keys: 2000, Skew: 1.2},
	"uniform":  {Keys: 300},
	"prefixed": {Keys: 500, Skew: 1.3, KeyPrefix: "NEU/", Mean: 7, Stddev: 0.5},
}

// TestSiblingMatchesNewSensorGen: a Sibling is NewSensorGen with the same
// options over the same stream, bit for bit — the blocks it draws at every
// length around the block size and at 10⁵, its table's keys and IDs, the
// remaps KeyUnion gives it, and the state of both its streams after drawing.
// The generator it is made from has drawn first, which must not matter.
func TestSiblingMatchesNewSensorGen(t *testing.T) {
	for name, opt := range siblingShapes {
		proto := NewSensorGen(rng.New(1), "A", opt)
		proto.AppendEvents(nil, 777, 0, time.Minute)
		proto.Table().Lookup("sensor-0001")
		sib, fresh := proto.Sibling(rng.New(5), "B"), NewSensorGen(rng.New(5), "B", opt)

		if sib.Table().Len() != fresh.Table().Len() {
			t.Fatalf("%s: sibling table holds %d keys, a fresh one %d", name, sib.Table().Len(), fresh.Table().Len())
		}
		for id := 1; id <= fresh.Table().Len(); id++ {
			if sib.Table().Key(id) != fresh.Table().Key(id) {
				t.Fatalf("%s: key %d is %q in the sibling, %q fresh", name, id, sib.Table().Key(id), fresh.Table().Key(id))
			}
		}
		other := NewSensorGen(rng.New(2), "C", SensorOpts{Keys: opt.Keys / 2, KeyPrefix: opt.KeyPrefix})
		_, sibRemaps := KeyUnion([]*SensorGen{other, sib})
		_, freshRemaps := KeyUnion([]*SensorGen{other, fresh})
		for i := range sibRemaps {
			if !slices.Equal(sibRemaps[i], freshRemaps[i]) {
				t.Fatalf("%s: KeyUnion remap %d differs between sibling and fresh generator", name, i)
			}
		}

		var a, b stream.Block
		from := simtime.Time(90 * time.Minute)
		for _, n := range []int{0, 1, 1023, 1024, 1025, 100_000} {
			sib.FillBlock(&a, n, from, 450*time.Millisecond)
			fresh.FillBlock(&b, n, from, 450*time.Millisecond)
			if a.Site != b.Site || len(a.IDs) != n || len(b.IDs) != n {
				t.Fatalf("%s n=%d: blocks from %q and %q with %d and %d IDs", name, n, a.Site, b.Site, len(a.IDs), len(b.IDs))
			}
			for i := range b.IDs {
				if a.IDs[i] != b.IDs[i] || math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
					t.Fatalf("%s n=%d event %d: sibling (%d, %v), fresh (%d, %v)", name, n, i, a.IDs[i], a.Values[i], b.IDs[i], b.Values[i])
				}
			}
			from += simtime.Time(n) * simtime.Time(450*time.Millisecond)
		}
		if *sib.r != *fresh.r || *sib.vr != *fresh.vr {
			t.Fatalf("%s: sibling and fresh generator left their streams in different states", name)
		}
	}
}

// TestSiblingsShareThePopulation: siblings read their prototype's key strings
// and alias table, so making one allocates a constant few hundred bytes
// whatever the key count; generators of different shapes share nothing.
func TestSiblingsShareThePopulation(t *testing.T) {
	for name, opt := range siblingShapes {
		proto := NewSensorGen(rng.New(1), "A", opt)
		sib := proto.Sibling(rng.New(2), "B")
		if sib.pop != proto.pop || (opt.Skew > 1) != (sib.zipf != nil) || (sib.zipf != nil && sib.zipf == proto.zipf) {
			t.Fatalf("%s: sibling population %p zipf %p, prototype %p zipf %p", name, sib.pop, sib.zipf, proto.pop, proto.zipf)
		}
		if sib.Table() == proto.Table() {
			t.Fatalf("%s: sibling shares its prototype's KeyTable", name)
		}
		for id := 1; id <= opt.Keys; id++ {
			if unsafe.StringData(sib.Table().Key(id)) != unsafe.StringData(proto.Table().Key(id)) {
				t.Fatalf("%s: sibling key %d is a copy", name, id)
			}
		}
	}
	a := NewSensorGen(rng.New(1), "A", siblingShapes["zipf"])
	b := NewSensorGen(rng.New(1), "A", SensorOpts{Keys: 2000, Skew: 1.3})
	if a.pop == b.pop || unsafe.StringData(a.Table().Key(1)) == unsafe.StringData(b.Table().Key(1)) {
		t.Fatal("generators of different shapes share a population")
	}

	const keys, sibs = 20_000, 100
	proto := NewSensorGen(rng.New(3), "A", SensorOpts{Keys: keys, Skew: 1.2})
	out := make([]*SensorGen, sibs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range out {
		out[i] = proto.Sibling(rng.New(uint64(i)), "B")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sibs; per > 1024 {
		t.Fatalf("a sibling over %d keys allocates %d B; its population is %d keys and %d alias cells", keys, per, keys, keys)
	}
}
