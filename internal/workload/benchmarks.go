package workload

import (
	"sync"
	"testing"
	"time"

	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
)

// Benchmark bodies shared between `go test -bench` and the perf-baseline
// harness (`sagebench -perf`), mirroring internal/netsim/benchmarks.go. What
// they fold, they fold the way the engine's stage does: blocks FillBlock drew,
// through KeyedAgg.AddBlock, into an aggregate taken from an AggPool and put
// back.

// PipelineBatch is the number of events one pipeline or Zipf fold op pushes
// through; per-event cost is ns_per_op / PipelineBatch.
const PipelineBatch = 1000

// UniformWindowEvents is the number of events one uniform fold op folds: one
// window of one source of the resil_recover benchmark workload (5 000
// events/s for 20 s).
const UniformWindowEvents = 100_000

// RunBenchmarkSensorGen measures drawing one event the way the engine draws
// them, PipelineBatch at a time into a reused columnar block, with Zipf keys
// of the given skew or, at skew 0, uniform ones; one op is one event.
// Steady-state budget: 0 allocs/op (the key strings are interned at
// construction).
func RunBenchmarkSensorGen(b *testing.B, keys int, skew float64) {
	g := NewSensorGen(rng.New(1), "NEU", SensorOpts{Keys: keys, Skew: skew})
	var blk stream.Block
	g.FillBlock(&blk, PipelineBatch, 0, time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += PipelineBatch {
		g.FillBlock(&blk, min(PipelineBatch, b.N-i), simtime.Time(i)*simtime.Time(time.Millisecond), time.Millisecond)
	}
}

// RunBenchmarkFold measures the fold alone: one window of events over keys
// keys — Zipf keys of the given skew or, at skew 0, uniform ones — drawn once
// by FillBlock outside the timer, folded each op into an aggregate of the
// given kind from an AggPool, which the op then puts back. The pool clears the
// aggregate it hands out, so an op pays for clearing the cells the window
// before filled, as a stage does. Steady-state budget: 0 allocs/op.
func RunBenchmarkFold(b *testing.B, keys int, skew float64, events int, kind stream.AggKind) {
	g := NewSensorGen(rng.New(1), "NEU", SensorOpts{Keys: keys, Skew: skew})
	var blk stream.Block
	g.FillBlock(&blk, events, 0, pipelineSpan/time.Duration(events))
	pool := stream.NewAggPool(kind, g.Table())
	fold := func() {
		a := pool.Get()
		a.AddBlock(&blk)
		pool.Put(a)
	}
	fold() // the pool's one aggregate exists before the first measured op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(events)), "ns/event")
}

// RunBenchmarkStreamPipeline measures the site-local data plane the way the
// engine's stage drives it: each op draws one PipelineBatch-event window of
// Zipf keys into a reused columnar block and folds it into an aggregate from
// the source's pool, which it puts back. Steady-state budget: 0 allocs/op.
func RunBenchmarkStreamPipeline(b *testing.B, keys int) {
	p := newPipeline(NewSensorGen(rng.New(1), "NEU", SensorOpts{Keys: keys, Skew: 1.3}))
	p.window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.window()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*PipelineBatch), "ns/event")
}

const pipelineSpan = 30 * time.Second

// pipeline is the state one source's stage holds between windows.
type pipeline struct {
	gen   *SensorGen
	pool  *stream.AggPool
	block stream.Block
	at    simtime.Time
}

func newPipeline(g *SensorGen) *pipeline {
	return &pipeline{gen: g, pool: stream.NewAggPool(stream.Mean, g.Table())}
}

// window stages one PipelineBatch-event window: fill, take an aggregate,
// fold, put it back.
func (p *pipeline) window() {
	p.gen.FillBlock(&p.block, PipelineBatch, p.at, pipelineSpan/PipelineBatch)
	a := p.pool.Get()
	a.AddBlock(&p.block)
	p.pool.Put(a)
	p.at += simtime.Time(pipelineSpan)
}

// MillionKeys is the key cardinality of the million-key pipeline benchmark:
// the design point of the dense KeyTable/KeyedAgg plane.
const MillionKeys = 1 << 20

// millionKeyState caches the pipeline across testing.Benchmark probe rounds:
// constructing a 2^20-key generator formats and interns a million strings,
// which would otherwise dominate every b.N calibration run. Steady-state
// measurements are unaffected — the pipeline state is exactly what a
// long-running engine would hold.
var millionKeyState struct {
	once sync.Once
	p    *pipeline
}

// RunBenchmarkMillionKeyPipeline is RunBenchmarkStreamPipeline at the
// million-key design point: each op pushes one PipelineBatch-event window
// through fill → fold against a 2^20-key interned table: key draws index a
// 16 MB alias table and the dense aggregate a million-cell slice, which the
// pool clears for each window, so both miss the cache. Steady-state budget:
// 0 allocs/op.
func RunBenchmarkMillionKeyPipeline(b *testing.B) {
	s := &millionKeyState
	s.once.Do(func() {
		s.p = newPipeline(NewSensorGen(rng.New(1), "NEU", SensorOpts{Keys: MillionKeys, Skew: 1.2}))
	})
	// One warmup window outside the timer so the dense cell slice and the
	// block exist before the first measured op.
	s.p.window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.p.window()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*PipelineBatch), "ns/event")
}
