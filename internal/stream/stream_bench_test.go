package stream

import "testing"

func BenchmarkWindowAggDense100(b *testing.B)  { RunBenchmarkWindowAggDense(b, 100) }
func BenchmarkWindowAggDense1000(b *testing.B) { RunBenchmarkWindowAggDense(b, 1000) }
func BenchmarkWindowAggDenseUniform20000(b *testing.B) {
	RunBenchmarkWindowAggDenseUniform(b, 20000, Mean)
}
func BenchmarkWindowAggDenseUniform20000Min(b *testing.B) {
	RunBenchmarkWindowAggDenseUniform(b, 20000, Min)
}
func BenchmarkWindowAggMap100(b *testing.B)  { RunBenchmarkWindowAggMap(b, 100) }
func BenchmarkWindowAggMap1000(b *testing.B) { RunBenchmarkWindowAggMap(b, 1000) }
