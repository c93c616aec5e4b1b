// Package sage's root benchmark suite: one testing.B benchmark per
// table/figure of the reconstructed evaluation (see DESIGN.md for the
// index). Each iteration regenerates the experiment's tables in quick mode;
// run a single one with e.g.
//
//	go test -bench=BenchmarkExp03 -benchmem
//
// and the full set with
//
//	go test -bench=. -benchmem
//
// For full-size (non-quick) tables use the sagebench binary instead.
//
// These end-to-end benchmarks sit on top of the per-layer micro-benchmarks
// (BenchmarkReallocate in internal/netsim, BenchmarkWindowAggDense in
// internal/stream, …); `go run ./cmd/sagebench -perf` records the
// micro-benchmarks, not these, to BENCH.json.
package sage_test

import (
	"testing"

	"sage/internal/bench"
	"sage/internal/stats"
)

// runExp executes one experiment per iteration and reports table rows
// produced as a custom metric so regressions in coverage are visible.
func runExp(b *testing.B, id int) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %d not registered", id)
	}
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(bench.Config{Seed: 1, Quick: true})
	}
	rows := 0
	for _, t := range tables {
		if len(t.Rows) == 0 {
			b.Fatalf("experiment %d produced empty table %q", id, t.Title)
		}
		rows += len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkExp01ThroughputMap(b *testing.B)  { runExp(b, 1) }
func BenchmarkExp02Variability(b *testing.B)    { runExp(b, 2) }
func BenchmarkExp03Estimators(b *testing.B)     { runExp(b, 3) }
func BenchmarkExp04Intrusiveness(b *testing.B)  { runExp(b, 4) }
func BenchmarkExp05CostTime(b *testing.B)       { runExp(b, 5) }
func BenchmarkExp06EnvAware(b *testing.B)       { runExp(b, 6) }
func BenchmarkExp07Baselines(b *testing.B)      { runExp(b, 7) }
func BenchmarkExp08MultiDC(b *testing.B)        { runExp(b, 8) }
func BenchmarkExp09Application(b *testing.B)    { runExp(b, 9) }
func BenchmarkExp10StreamLatency(b *testing.B)  { runExp(b, 10) }
func BenchmarkExp11ModelError(b *testing.B)     { runExp(b, 11) }
func BenchmarkExp12Budget(b *testing.B)         { runExp(b, 12) }
func BenchmarkExp13AblationWSI(b *testing.B)    { runExp(b, 13) }
func BenchmarkExp14AblationChunk(b *testing.B)  { runExp(b, 14) }
func BenchmarkExp15Dissemination(b *testing.B)  { runExp(b, 15) }
func BenchmarkExp16LossyStreaming(b *testing.B) { runExp(b, 16) }
func BenchmarkExp17DeadlineCalib(b *testing.B)  { runExp(b, 17) }
func BenchmarkExp18Worldwide(b *testing.B)      { runExp(b, 18) }
func BenchmarkExp19Recovery(b *testing.B)       { runExp(b, 19) }
func BenchmarkExp20Scale(b *testing.B)          { runExp(b, 20) }
func BenchmarkExp21Sched(b *testing.B)          { runExp(b, 21) }
