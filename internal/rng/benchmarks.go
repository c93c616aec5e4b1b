package rng

import "testing"

// Benchmark bodies shared between `go test -bench` and the perf-baseline
// harness (`sagebench -perf`), as in internal/netsim/benchmarks.go: the two
// standard-normal samplers, ns per variate.

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
// from it, a 1 024-variate block at a time (FillZigNorm); one op is one
// variate.
func RunBenchmarkZigNormFloat64(b *testing.B) {
	r := New(1)
	vals := make([]float64, fillBenchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(vals) {
		r.FillZigNorm(vals[:min(len(vals), b.N-i)])
	}
	benchSink = vals[0]
}

// benchSink keeps the measured draws live.
var benchSink float64
