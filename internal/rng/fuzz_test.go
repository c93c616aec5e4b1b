package rng

import (
	"math"
	"testing"
)

// FuzzIntnReduction: the multiply reduction FillIntn draws keys with is
// u % n, for every u and every n >= 1. The seeds are the moduli where a
// rounded reciprocal is most likely to be one off — 1, powers of two and
// their neighbours, the largest ints — and the engine's own, each with the
// words next to a multiple of it.
func FuzzIntnReduction(f *testing.F) {
	moduli := []uint64{1, 2, 3, 20_000, 1<<31 - 1, 1<<62 + 12_345, math.MaxInt64, math.MaxUint64}
	for k := 1; k < 64; k++ {
		moduli = append(moduli, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range moduli {
		for _, u := range []uint64{0, math.MaxUint64, n - 1, n, n + 1, 3*n - 1, 3 * n, 3*n + 1,
			math.MaxUint64 / n * n, math.MaxUint64/n*n - 1, math.MaxUint64/n*n + 1} {
			f.Add(u, n)
		}
	}
	f.Fuzz(func(t *testing.T, u, n uint64) {
		if n == 0 {
			t.Skip("no remainder modulo 0")
		}
		if got, want := newModulus(n).reduce(u), u%n; got != want {
			t.Fatalf("reduce(%#x) modulo %#x = %#x, %% gives %#x", u, n, got, want)
		}
	})
}

// FuzzFillSplit lifts the seeded scripts of fill_test.go into a fuzz target:
// the input chooses the stream, both key domains, the ID offset and a run of
// block lengths (a byte each, stretched so that runs cross the engine's
// 1 024-event block), and every block of every fill must equal its per-draw
// loop on a twin and leave the generator where the twin is.
func FuzzFillSplit(f *testing.F) {
	f.Add(uint64(1), uint32(1199), int32(1), []byte{0, 1, 255, 7, 128})
	f.Add(uint64(53), uint32(0), int32(0), []byte{255, 255, 255, 255, 255})
	f.Add(uint64(7), uint32(math.MaxUint32), int32(math.MinInt32), []byte{3, 0, 0, 200})
	f.Add(uint64(0), uint32(19_999), int32(math.MaxInt32-19_999), []byte{64, 64})
	f.Fuzz(func(t *testing.T, seed uint64, keys uint32, off int32, blocks []byte) {
		intnKeys := int(keys>>2) + 1
		if int64(intnKeys)-1+int64(off) > math.MaxInt32 {
			t.Skip("IDs would not fit int32: TestFillsRefuseWhatTheyCannotDraw")
		}
		blocks = blocks[:min(len(blocks), 32)]
		for _, fl := range newFillers(int(keys%4096)+1, intnKeys, off) {
			r, twin := New(seed), New(seed)
			fill, _ := fl.bind(r)
			_, scalar := fl.bind(twin)
			for b, c := range blocks {
				n := int(c) * (1 + b%6)
				if i := firstDiff(fill(n), scalar(n)); i >= 0 {
					t.Fatalf("%s block %d of %d draws: draw %d differs from the per-draw method", fl.name, b, n, i)
				}
				if *r != *twin {
					t.Fatalf("%s block %d of %d draws: generator at %+v, twin at %+v", fl.name, b, n, *r, *twin)
				}
			}
		}
	})
}

// TestFillsRefuseWhatTheyCannotDraw: FillIntn panics on n <= 0 as Intn does
// (and for an empty block too: the argument is wrong whatever the length), and
// both key fills panic when the largest key plus the offset is not an int32,
// where the per-draw loops they replaced would have wrapped silently.
func TestFillsRefuseWhatTheyCannotDraw(t *testing.T) {
	z := NewZipf(New(1), 1.3, 1, 9)
	for name, c := range map[string]struct {
		draw   func()
		panics bool
	}{
		"FillIntn n=0":              {func() { New(1).FillIntn(make([]int32, 4), 0, 1) }, true},
		"FillIntn n<0":              {func() { New(1).FillIntn(make([]int32, 4), -3, 1) }, true},
		"FillIntn n=0, empty block": {func() { New(1).FillIntn(nil, 0, 1) }, true},
		"FillIntn past int32":       {func() { New(1).FillIntn(make([]int32, 4), 10, math.MaxInt32-8) }, true},
		"FillIntn up to MaxInt32":   {func() { New(1).FillIntn(make([]int32, 4), 10, math.MaxInt32-9) }, false},
		"FillIntn n=2^31-1, off 1":  {func() { New(1).FillIntn(make([]int32, 4), math.MaxInt32, 1) }, false},
		"FillIntn n=2^31-1, off 2":  {func() { New(1).FillIntn(make([]int32, 4), math.MaxInt32, 2) }, true},
		"Zipf.Fill past int32":      {func() { z.Fill(make([]int32, 4), math.MaxInt32-8) }, true},
		"Zipf.Fill up to MaxInt32":  {func() { z.Fill(make([]int32, 4), math.MaxInt32-9) }, false},
	} {
		func() {
			defer func() {
				if got := recover() != nil; got != c.panics {
					t.Errorf("%s: panicked = %v, want %v", name, got, c.panics)
				}
			}()
			c.draw()
		}()
	}
}
