package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// A filler binds one block draw and the per-draw method that defines it to a
// generator. Both return the bit patterns of the n draws they make, so one
// comparison serves keys and values and tells -0 from +0.
type filler struct {
	name string
	bind func(r *Rand) (fill, scalar func(n int) []uint64)
}

// newFillers binds the three fills for a Zipf domain of zipfKeys keys, a
// uniform one of intnKeys and the ID offset off; FillNormal twice, at a
// workload's mean and deviation and at (0, 1), where the scalar expression
// turns a -0 into +0.
func newFillers(zipfKeys, intnKeys int, off int32) []filler {
	return []filler{
		normalFiller(20, 5),
		normalFiller(0, 1),
		{"Zipf.Fill", func(r *Rand) (fill, scalar func(n int) []uint64) {
			z := NewZipf(r, 1.3, 1, uint64(zipfKeys-1))
			return func(n int) []uint64 {
					ids := make([]int32, n)
					z.Fill(ids, off)
					return idBits(ids)
				}, func(n int) []uint64 {
					ids := make([]int32, n)
					for i := range ids {
						ids[i] = int32(z.Uint64()) + off
					}
					return idBits(ids)
				}
		}},
		{"FillIntn", func(r *Rand) (fill, scalar func(n int) []uint64) {
			return func(n int) []uint64 {
					ids := make([]int32, n)
					r.FillIntn(ids, intnKeys, off)
					return idBits(ids)
				}, func(n int) []uint64 {
					ids := make([]int32, n)
					for i := range ids {
						ids[i] = int32(r.Intn(intnKeys)) + off
					}
					return idBits(ids)
				}
		}},
	}
}

// normalFiller binds FillNormal at (mean, sd) and its definition,
// mean + sd*ZigNormFloat64().
func normalFiller(mean, sd float64) filler {
	return filler{fmt.Sprintf("FillNormal(%g, %g)", mean, sd), func(r *Rand) (fill, scalar func(n int) []uint64) {
		return func(n int) []uint64 {
				vals := make([]float64, n)
				r.FillNormal(vals, mean, sd)
				return valueBits(vals)
			}, func(n int) []uint64 {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = mean + sd*r.ZigNormFloat64()
				}
				return valueBits(vals)
			}
	}}
}

// fillers are the fills at the engine's shapes: agg_wide's Zipf domain,
// resil_recover's uniform one, IDs from 1.
var fillers = newFillers(1200, 20_000, 1)

func idBits(ids []int32) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

func valueBits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestFillsMatchScalarDraws: a fill is the per-draw method repeated — every
// draw bit for bit, and the generator left in the same state — at the lengths
// around the engine's 1 024-event block and at a million.
func TestFillsMatchScalarDraws(t *testing.T) {
	for _, f := range fillers {
		for _, n := range []int{0, 1, 1023, 1024, 1025, 1_000_000} {
			r, twin := New(53), New(53)
			fill, _ := f.bind(r)
			_, scalar := f.bind(twin)
			if i := firstDiff(fill(n), scalar(n)); i >= 0 {
				t.Fatalf("%s n=%d: draw %d differs from the per-draw method", f.name, n, i)
			}
			if *r != *twin {
				t.Fatalf("%s n=%d: the fill left the generator at %+v, %d per-draw calls at %+v", f.name, n, *r, n, *twin)
			}
		}
	}
}

// TestFillNormalCrossesTheSlowPath: the million-draw case above is a test of
// zigFinish under the fill only if the fill gets there. Words that miss
// their layer's inner rectangle are counted on a twin of the stream the way
// ZigNormFloat64 reads them; words a slow draw consumes beyond its first are
// uniforms, and counting them as if they were first words can only change the
// count by the few per cent they are.
func TestFillNormalCrossesTheSlowPath(t *testing.T) {
	const n = 1_000_000
	r, twin := New(53), New(53)
	r.FillNormal(make([]float64, n), 20, 5)
	var slow, base int
	for *twin != *r {
		u := twin.Uint64()
		if u>>11 >= zigCells[u%zigLayers].k {
			slow++
			if u%zigLayers == 0 {
				base++
			}
		}
	}
	t.Logf("%d of %d draws left the inner rectangle, %d of them in the base strip", slow, n, base)
	if slow < 5000 || base < 100 {
		t.Fatalf("a million draws took the slow path %d times (base strip %d); want >= 5000 and >= 100", slow, base)
	}
}

// TestFillNormalScalesNegativeZero: a word at the bottom of a layer with the
// sign bit set is a standard normal -0, and FillNormal at (0, 1) writes
// 0 + 1·(-0) = +0 as its definition does — a fill that left the standard
// variate unscaled at (0, 1) would write -0.
func TestFillNormalScalesNegativeZero(t *testing.T) {
	const u = 1<<8 | 5 // layer 5, sign bit, position 0
	if z := nextWord(u).ZigNormFloat64(); math.Float64bits(z) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("word %#x draws %v, want -0", u, z)
	}
	vals := make([]float64, 1)
	nextWord(u).FillNormal(vals, 0, 1)
	if math.Float64bits(vals[0]) != 0 {
		t.Fatalf("FillNormal(0, 1) from word %#x = %v (bits %#x), want +0", u, vals[0], math.Float64bits(vals[0]))
	}
}

// TestFillsSplitAnywhere: a window filled in blocks is the window filled at
// once, wherever the blocks end — every single cut of a short window, and
// seeded sets of cuts (empty blocks included) of a long one.
func TestFillsSplitAnywhere(t *testing.T) {
	for _, f := range fillers {
		inBlocks := func(cuts []int, n int) ([]uint64, Rand) {
			r := New(59)
			fill, _ := f.bind(r)
			var out []uint64
			at := 0
			for _, c := range append(slices.Clone(cuts), n) {
				out = append(out, fill(c-at)...)
				at = c
			}
			return out, *r
		}
		check := func(cuts []int, n int, whole []uint64, end Rand) {
			t.Helper()
			got, state := inBlocks(cuts, n)
			if i := firstDiff(got, whole); i >= 0 {
				t.Fatalf("%s n=%d cut at %v: draw %d differs from the window filled at once", f.name, n, cuts, i)
			}
			if state != end {
				t.Fatalf("%s n=%d cut at %v: generator state differs from the window filled at once", f.name, n, cuts)
			}
		}
		const short, long = 70, 5000
		whole, end := inBlocks(nil, short)
		for c := 0; c <= short; c++ {
			check([]int{c}, short, whole, end)
		}
		whole, end = inBlocks(nil, long)
		script := New(61)
		for round := 0; round < 40; round++ {
			cuts := make([]int, 1+script.Intn(12))
			for i := range cuts {
				cuts[i] = script.Intn(long + 1)
			}
			slices.Sort(cuts)
			check(cuts, long, whole, end)
		}
	}
}

// TestFillsInterleaveWithScalarDraws: fills and per-draw methods share one
// generator and may alternate freely — a seeded script mixes the three fills
// with every scalar draw Rand has, the polar normal and its cached spare
// included, and a twin that replaces each fill by its per-draw loop must
// produce the same numbers and pass through the same states.
func TestFillsInterleaveWithScalarDraws(t *testing.T) {
	r, twin := New(67), New(67)
	type pair struct{ fill, scalar func(n int) []uint64 }
	var bound []pair
	for _, f := range fillers {
		fill, _ := f.bind(r)
		_, scalar := f.bind(twin)
		bound = append(bound, pair{fill, scalar})
	}
	scalars := []func(r *Rand) uint64{
		(*Rand).Uint64,
		func(r *Rand) uint64 { return math.Float64bits(r.Float64()) },
		func(r *Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
		func(r *Rand) uint64 { return math.Float64bits(r.ZigNormFloat64()) },
		func(r *Rand) uint64 { return uint64(r.Intn(977)) },
	}
	script := New(71)
	for step := 0; step < 3000; step++ {
		if op := script.Intn(len(bound) + len(scalars)); op < len(bound) {
			n := script.Intn(300)
			if i := firstDiff(bound[op].fill(n), bound[op].scalar(n)); i >= 0 {
				t.Fatalf("step %d: %s of %d differs from the per-draw method at draw %d", step, fillers[op].name, n, i)
			}
		} else if got, want := scalars[op-len(bound)](r), scalars[op-len(bound)](twin); got != want {
			t.Fatalf("step %d: scalar draw %d after fills is %#x, on the twin %#x", step, op-len(bound), got, want)
		}
		if *r != *twin {
			t.Fatalf("step %d: generator states differ: %+v, twin %+v", step, *r, *twin)
		}
	}
}
