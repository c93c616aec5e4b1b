package workload

import (
	"testing"

	"sage/internal/stream"
)

func BenchmarkSensorGen100(b *testing.B)     { RunBenchmarkSensorGen(b, 100, 1.3) }
func BenchmarkSensorGen1000(b *testing.B)    { RunBenchmarkSensorGen(b, 1000, 1.3) }
func BenchmarkSensorGenUniform(b *testing.B) { RunBenchmarkSensorGen(b, 20000, 0) }
func BenchmarkFold100(b *testing.B)          { RunBenchmarkFold(b, 100, 1.3, PipelineBatch, stream.Mean) }
func BenchmarkFold1000(b *testing.B)         { RunBenchmarkFold(b, 1000, 1.3, PipelineBatch, stream.Mean) }
func BenchmarkFoldUniform(b *testing.B) {
	RunBenchmarkFold(b, 20000, 0, UniformWindowEvents, stream.Mean)
}
func BenchmarkFoldUniformMin(b *testing.B) {
	RunBenchmarkFold(b, 20000, 0, UniformWindowEvents, stream.Min)
}
func BenchmarkStreamPipeline100(b *testing.B)  { RunBenchmarkStreamPipeline(b, 100) }
func BenchmarkStreamPipeline1000(b *testing.B) { RunBenchmarkStreamPipeline(b, 1000) }
func BenchmarkMillionKeyPipeline(b *testing.B) { RunBenchmarkMillionKeyPipeline(b) }
