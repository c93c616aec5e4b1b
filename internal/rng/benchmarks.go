package rng

import "testing"

// Benchmark bodies shared between `go test -bench` and the perf-baseline
// harness (`sagebench -perf`), as in internal/netsim/benchmarks.go: the two
// standard-normal samplers, ns per variate.

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

// RunBenchmarkZigNormFloat64 measures the ziggurat.
func RunBenchmarkZigNormFloat64(b *testing.B) {
	r := New(1)
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += r.ZigNormFloat64()
	}
	benchSink = sum
}

// benchSink keeps the measured draws live.
var benchSink float64
