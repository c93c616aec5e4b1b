package rng

import (
	"math"
	"math/bits"
)

// Block forms of the three draws the engine makes once per event. Each is
// defined by the per-draw expression it repeats — same values, same order,
// same generator state afterwards (fill_test.go, fuzz_test.go) — and differs
// from calling it in a loop in this: the xoshiro state is lifted into locals
// once, stepped in registers for the whole slice and stored back once, and
// nothing is called per draw. A per-draw call loads and stores the four words every
// time, so the recurrence runs through store-to-load forwarding.
//
// The step (Uint64's body) is written out in each loop. As an inlined helper
// returning the word and the four new state words it compiles (go1.24, amd64)
// to a loop that spills s1 to the stack and reloads it every iteration — the
// memory round trip the fills exist to remove; written out, the loops keep
// the state in registers and spill only loop invariants. The sequence tests
// hold the copies together.

// Fill draws len(ids) keys: ids[i] = int32(z.Uint64()) + off. It panics when
// the largest key plus off does not fit an int32.
func (z *Zipf) Fill(ids []int32, off int32) {
	cells := z.cells
	n := uint64(len(cells))
	if int64(n)-1+int64(off) > math.MaxInt32 {
		panic("rng: Zipf.Fill keys do not fit int32")
	}
	r := z.r
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range ids {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		col, frac := bits.Mul64(u, n)
		c := &cells[col]
		k := c.alias
		if frac < c.keep {
			k = col
		}
		ids[i] = int32(k) + off
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// FillNormal draws len(vals) normal variates of mean mean and standard
// deviation sd: vals[i] = mean + sd*r.ZigNormFloat64(). Each variate is
// scaled where it is drawn, so a column is written once. The draws that leave
// their layer's inner rectangle hand the state back to the Rand, take
// zigFinish and reload.
func (r *Rand) FillNormal(vals []float64, mean, sd float64) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range vals {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		c := &zigCells[u%zigLayers]
		if j := u >> 11; j < c.k {
			vals[i] = mean + sd*zigSigned(float64(int64(j))*c.w, u)
			continue
		}
		r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
		vals[i] = mean + sd*r.zigFinish(u)
		s0, s1, s2, s3 = r.s0, r.s1, r.s2, r.s3
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// FillIntn draws len(ids) uniform keys: ids[i] = int32(r.Intn(n)) + off. It
// panics when n <= 0, as Intn does, and when n-1+off does not fit an int32,
// whatever len(ids).
func (r *Rand) FillIntn(ids []int32, n int, off int32) {
	if n <= 0 {
		panic(errIntnRange)
	}
	if int64(n)-1+int64(off) > math.MaxInt32 {
		panic("rng: FillIntn keys do not fit int32")
	}
	// u % m by one multiply (Barrett): rec = ⌊(2⁶⁴−1)/m⌋ ≥ (2⁶⁴−m)/m, so
	// q = ⌊u·rec/2⁶⁴⌋ is ⌊u/m⌋ or one short of it and rem = u − q·m is below
	// 2m; the unsigned min takes rem − m exactly when rem ≥ m (below, it
	// wraps past rem). On a 2-vCPU amd64 VM this draws a key in 2.1 ns at
	// m = 20 000, a 64-bit DIV in 3.5 ns, and the three-multiply 128-bit
	// reduction the DIV replaced took 5.1–6.7 ns; see DESIGN.md
	// "Register-resident block draws".
	m := uint64(n)
	rec := ^uint64(0) / m
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range ids {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		q, _ := bits.Mul64(u, rec)
		rem := u - q*m
		ids[i] = int32(min(rem, rem-m)) + off
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}
