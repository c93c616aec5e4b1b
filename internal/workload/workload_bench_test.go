package workload

import "testing"

func BenchmarkSensorGen100(b *testing.B)       { RunBenchmarkSensorGen(b, 100, 1.3) }
func BenchmarkSensorGen1000(b *testing.B)      { RunBenchmarkSensorGen(b, 1000, 1.3) }
func BenchmarkSensorGenUniform(b *testing.B)   { RunBenchmarkSensorGen(b, 20000, 0) }
func BenchmarkStreamPipeline100(b *testing.B)  { RunBenchmarkStreamPipeline(b, 100) }
func BenchmarkStreamPipeline1000(b *testing.B) { RunBenchmarkStreamPipeline(b, 1000) }
func BenchmarkMillionKeyPipeline(b *testing.B) { RunBenchmarkMillionKeyPipeline(b) }
