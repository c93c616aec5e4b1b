package rng

// Block forms of the three draws the engine makes once per event. Each is
// defined by the per-draw method it repeats: same values, same order, same
// generator state afterwards (fill_test.go).

// Fill draws len(ids) keys: ids[i] = int32(z.Uint64()) + off.
func (z *Zipf) Fill(ids []int32, off int32) {
	for i := range ids {
		ids[i] = int32(z.Uint64()) + off
	}
}

// FillZigNorm draws len(vals) standard normal variates: vals[i] =
// r.ZigNormFloat64().
func (r *Rand) FillZigNorm(vals []float64) {
	for i := range vals {
		vals[i] = r.ZigNormFloat64()
	}
}

// FillIntn draws len(ids) uniform keys: ids[i] = int32(r.Intn(n)) + off. It
// panics when n <= 0.
func (r *Rand) FillIntn(ids []int32, n int, off int32) {
	for i := range ids {
		ids[i] = int32(r.Intn(n)) + off
	}
}
