package rng

import "testing"

// Benchmark bodies shared between `go test -bench` and the perf-baseline
// harness (`sagebench -perf`), as in internal/netsim/benchmarks.go: the two
// standard-normal samplers, ns per variate, and the two key draws, ns per
// key.

// fillBenchBlock is the block the fill benchmarks draw: core's stageBlock.
const fillBenchBlock = 1024

// RunBenchmarkNormFloat64 measures the polar method.
func RunBenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += r.NormFloat64()
	}
	benchSink = sum
}

// RunBenchmarkZigNormFloat64 measures the ziggurat the way the engine draws
// from it, a 1 024-variate block at a time (FillNormal at mean 0, sd 1); one
// op is one variate.
func RunBenchmarkZigNormFloat64(b *testing.B) {
	r := New(1)
	vals := make([]float64, fillBenchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(vals) {
		r.FillNormal(vals[:min(len(vals), b.N-i)], 0, 1)
	}
	benchSink = vals[0]
}

// RunBenchmarkKeyDraw measures a key draw the way the engine makes it, a
// 1 024-key block at a time, IDs from 1: Zipf.Fill over keys keys at skew,
// or FillIntn over keys keys when skew is 0. One op is one key.
func RunBenchmarkKeyDraw(b *testing.B, keys int, skew float64) {
	r := New(1)
	fill := func(ids []int32) { r.FillIntn(ids, keys, 1) }
	if skew != 0 {
		z := NewZipf(r, skew, 1, uint64(keys-1))
		fill = func(ids []int32) { z.Fill(ids, 1) }
	}
	ids := make([]int32, fillBenchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ids) {
		fill(ids[:min(len(ids), b.N-i)])
	}
	benchSink = float64(ids[0])
}

// benchSink keeps the measured draws live.
var benchSink float64
