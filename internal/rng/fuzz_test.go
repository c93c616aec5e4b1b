package rng

import (
	"math"
	"math/bits"
	"testing"
)

// FuzzIntnReduction: a key Intn or FillIntn draws from the word u is u % n,
// placed at the offset, for every u and every n >= 1, and FillIntn refuses
// exactly the (n, offset) pairs whose keys would not fit an int32. Each draw
// starts from a state built to emit u next (nextWord), so the fuzzer picks the
// word as well as the modulus. FillIntn reduces by one multiply, whose
// quotient estimate is exact or one short (intnEstimate); the seeds reach
// both for every modulus (TestIntnReductionSeedsReachBothSides).
func FuzzIntnReduction(f *testing.F) {
	for _, s := range intnReductionSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, u, n uint64) {
		if n == 0 {
			t.Skip("no remainder modulo 0")
		}
		if got := nextWord(u).Uint64(); got != u {
			t.Fatalf("nextWord(%#x) emits %#x", u, got)
		}
		if n > math.MaxInt64 {
			// int(n) is negative: both draws refuse it as Intn's range error.
			for name, draw := range map[string]func(){
				"Intn":     func() { nextWord(u).Intn(int(n)) },
				"FillIntn": func() { nextWord(u).FillIntn(make([]int32, 1), int(n), math.MinInt32) },
			} {
				if got := panicOf(draw); got != errIntnRange {
					t.Fatalf("%s modulo %#x panicked with %v, want %q", name, n, got, errIntnRange)
				}
			}
			return
		}
		want := u % n
		if got := nextWord(u).Intn(int(n)); uint64(got) != want {
			t.Fatalf("Intn(%#x) from word %#x = %#x, %% gives %#x", n, u, got, want)
		}
		offs := []int32{0, math.MinInt32}
		if top := math.MaxInt32 - (int64(n) - 1); top >= math.MinInt32 && top != 0 {
			offs = append(offs, int32(top)) // the largest key is MaxInt32
		}
		for _, off := range offs {
			r, twin := nextWord(u), nextWord(u)
			ids := make([]int32, 1)
			fits := int64(n)-1+int64(off) <= math.MaxInt32
			if got := panicOf(func() { r.FillIntn(ids, int(n), off) }); (got == nil) != fits {
				t.Fatalf("FillIntn(%#x, off %d) panicked with %v; keys fit int32: %v", n, off, got, fits)
			}
			if !fits {
				continue
			}
			twin.Uint64()
			if key := int64(want) + int64(off); int64(ids[0]) != key {
				t.Fatalf("FillIntn(%#x, off %d) from word %#x = %d, want %d", n, off, u, ids[0], key)
			}
			if *r != *twin {
				t.Fatalf("FillIntn(%#x, off %d) left the generator off its one-word step", n, off)
			}
		}
	})
}

// intnReductionSeeds are FuzzIntnReduction's (word, modulus) seeds: the
// moduli where a remainder is most likely to go wrong — 1, powers of two and
// their neighbours, the int32 and int64 edges, the largest words — and the
// engine's own, each with the words next to a multiple of it.
func intnReductionSeeds() [][2]uint64 {
	moduli := []uint64{1, 2, 3, 20_000, 1<<31 - 1, 1<<62 + 12_345, math.MaxInt64, math.MaxUint64}
	for k := 1; k < 64; k++ {
		moduli = append(moduli, 1<<k-1, 1<<k, 1<<k+1)
	}
	var seeds [][2]uint64
	for _, n := range moduli {
		for _, u := range []uint64{0, math.MaxUint64, n - 1, n, n + 1, 3*n - 1, 3 * n, 3*n + 1,
			math.MaxUint64 / n * n, math.MaxUint64/n*n - 1, math.MaxUint64/n*n + 1} {
			seeds = append(seeds, [2]uint64{u, n})
		}
	}
	return seeds
}

// intnEstimate is FillIntn's quotient estimate of u / n, ⌊u·rec/2⁶⁴⌋ with
// rec = ⌊(2⁶⁴−1)/n⌋, and whether it is one short of ⌊u/n⌋.
func intnEstimate(u, n uint64) (q uint64, short bool) {
	q, _ = bits.Mul64(u, math.MaxUint64/n)
	return q, q != u/n
}

// TestIntnReductionSeedsReachBothSides: for every modulus FillIntn accepts,
// FuzzIntnReduction's seeds hold a word whose quotient estimate is one short
// (the correction subtracts n) and a word with a quotient of at least one
// whose estimate is exact (it must not) — for n = 1 the only exact word is 0.
// No estimate is off by more than one.
func TestIntnReductionSeedsReachBothSides(t *testing.T) {
	type sides struct{ exact, short bool }
	reached := map[uint64]*sides{}
	for _, s := range intnReductionSeeds() {
		u, n := s[0], s[1]
		if n > math.MaxInt64 {
			continue
		}
		if reached[n] == nil {
			reached[n] = &sides{}
		}
		q, short := intnEstimate(u, n)
		if want := u / n; q != want && q != want-1 {
			t.Fatalf("word %#x modulo %#x: estimate %d, quotient %d", u, n, q, want)
		}
		if short {
			reached[n].short = true
		} else if q >= 1 || n == 1 {
			reached[n].exact = true
		}
	}
	for n, s := range reached {
		if !s.exact || !s.short {
			t.Errorf("modulus %#x: seeds reach the exact estimate %v, the short one %v", n, s.exact, s.short)
		}
	}
}

// nextWord returns a generator whose next Uint64 is u. xoshiro256** emits
// rotl(s1·5, 7)·9 before it steps, and 5 and 9 are odd, so s1 is u times the
// inverse of 9, rotated back, times the inverse of 5 (mod 2^64); the other
// words are fixed and keep the state off all-zero.
func nextWord(u uint64) *Rand {
	s1 := bits.RotateLeft64(u*inverseOdd(9), -7) * inverseOdd(5)
	return &Rand{s0: 0x9e3779b97f4a7c15, s1: s1, s2: 0xbf58476d1ce4e5b9, s3: 0x94d049bb133111eb}
}

// inverseOdd returns the inverse of an odd a modulo 2^64 by Newton's
// iteration, x ← x·(2 − a·x): a is its own inverse to 3 bits, and each step
// doubles the bits that are right.
func inverseOdd(a uint64) uint64 {
	x := a
	for range 5 {
		x *= 2 - a*x
	}
	return x
}

// panicOf runs draw and returns what it panicked with, or nil.
func panicOf(draw func()) (v any) {
	defer func() { v = recover() }()
	draw()
	return nil
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
