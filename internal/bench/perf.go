package bench

import (
	"runtime"
	"testing"

	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/rng"
	"sage/internal/route"
	"sage/internal/sched"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// PerfResult is one micro-benchmark measurement.
type PerfResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Perf is the micro-baseline `sagebench -perf` writes to BENCH.json: the
// recording host, stamped once, and one testing.Benchmark result per row of
// perfRows. Budgets are checked against it by TestPerfBaseline; numbers
// derived from rows are computed there, never stored.
type Perf struct {
	GoVersion  string                `json:"go_version"`
	GOARCH     string                `json:"goarch"`
	Cores      int                   `json:"cores"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Rows       map[string]PerfResult `json:"rows"`
}

// perfRow is one micro-benchmark of the baseline: its key,
// "<package>/<benchmark>", and the benchmark body the package exports.
type perfRow struct {
	key string
	run func(*testing.B)
}

// perfRows is the one list the writer runs and the check reads.
var perfRows = []perfRow{
	// One world-wide reallocation pass and flow churn at 10/100/1000
	// concurrent flows; ns per fired event on raw_rough's 60-site world, where
	// passes are component-scoped.
	{"netsim/Reallocate/flows=10", func(b *testing.B) { netsim.RunBenchmarkReallocate(b, 10) }},
	{"netsim/Reallocate/flows=100", func(b *testing.B) { netsim.RunBenchmarkReallocate(b, 100) }},
	{"netsim/Reallocate/flows=1000", func(b *testing.B) { netsim.RunBenchmarkReallocate(b, 1000) }},
	{"netsim/FlowChurn/flows=10", func(b *testing.B) { netsim.RunBenchmarkFlowChurn(b, 10) }},
	{"netsim/FlowChurn/flows=100", func(b *testing.B) { netsim.RunBenchmarkFlowChurn(b, 100) }},
	{"netsim/FlowChurn/flows=1000", func(b *testing.B) { netsim.RunBenchmarkFlowChurn(b, 1000) }},
	{"netsim/RoughWorldEvent/sites=60", netsim.RunBenchmarkRoughWorld},

	// The two normal samplers, ns per variate: the polar method the weather
	// draws from, and the ziggurat as the engine draws workload values, a
	// block at a time.
	{"stream/NormFloat64/polar", rng.RunBenchmarkNormFloat64},
	{"stream/NormFloat64/ziggurat", rng.RunBenchmarkZigNormFloat64},
	// The two key draws, ns per key, 1 024-key blocks: agg_wide's Zipf
	// domain and resil_recover's uniform one.
	{"stream/KeyDraw/zipf", func(b *testing.B) { rng.RunBenchmarkKeyDraw(b, 1200, 1.3) }},
	{"stream/KeyDraw/uniform", func(b *testing.B) { rng.RunBenchmarkKeyDraw(b, 20000, 0) }},
	// Event generation, dense vs map windowed aggregation and the
	// fill → fold → advance pipeline a source's stage runs.
	{"stream/SensorGen/keys=100", func(b *testing.B) { workload.RunBenchmarkSensorGen(b, 100, 1.3) }},
	{"stream/SensorGen/keys=1000", func(b *testing.B) { workload.RunBenchmarkSensorGen(b, 1000, 1.3) }},
	{"stream/WindowAggDense/keys=100", func(b *testing.B) { stream.RunBenchmarkWindowAggDense(b, 100) }},
	{"stream/WindowAggDense/keys=1000", func(b *testing.B) { stream.RunBenchmarkWindowAggDense(b, 1000) }},
	{"stream/WindowAggMap/keys=100", func(b *testing.B) { stream.RunBenchmarkWindowAggMap(b, 100) }},
	{"stream/WindowAggMap/keys=1000", func(b *testing.B) { stream.RunBenchmarkWindowAggMap(b, 1000) }},
	{"stream/StreamPipeline/keys=100", func(b *testing.B) { workload.RunBenchmarkStreamPipeline(b, 100) }},
	{"stream/StreamPipeline/keys=1000", func(b *testing.B) { workload.RunBenchmarkStreamPipeline(b, 1000) }},
	// resil_recover's shape, 20 000 uniform keys: generation over the
	// uniform key draw, and the columnar fold of one 100 000-event window,
	// where cells miss the cache, for the sum loop (Mean) and an extreme loop
	// (Min).
	{"stream/SensorGen/keys=20000/uniform", func(b *testing.B) { workload.RunBenchmarkSensorGen(b, 20000, 0) }},
	{"stream/WindowAggDense/keys=20000/uniform", func(b *testing.B) {
		stream.RunBenchmarkWindowAggDenseUniform(b, 20000, stream.Mean)
	}},
	{"stream/WindowAggDense/keys=20000/uniform/min", func(b *testing.B) {
		stream.RunBenchmarkWindowAggDenseUniform(b, 20000, stream.Min)
	}},

	// Live and no-op instrument updates and flight-recorder appends.
	{"obs/CounterInc", obs.RunBenchmarkCounterInc},
	{"obs/GaugeSet", obs.RunBenchmarkGaugeSet},
	{"obs/HistogramObserve", obs.RunBenchmarkHistogramObserve},
	{"obs/DisabledCounterInc", obs.RunBenchmarkDisabledCounterInc},
	{"obs/TimelineRecord", obs.RunBenchmarkTimelineRecord},

	// The dense plane at 2²⁰ keys per table.
	{"scale/MillionKeyPipeline", workload.RunBenchmarkMillionKeyPipeline},

	// Widest paths across world sizes, the from-scratch replan the
	// incremental planner replaced, and incremental replans by dirty-edge
	// count on the 500-site world.
	{"route/WidestPath/sites=50", func(b *testing.B) { route.RunBenchmarkWidestPath(b, 50) }},
	{"route/WidestPath/sites=200", func(b *testing.B) { route.RunBenchmarkWidestPath(b, 200) }},
	{"route/WidestPath/sites=500", func(b *testing.B) { route.RunBenchmarkWidestPath(b, 500) }},
	{"route/FromScratchReplan/sites=50", func(b *testing.B) { route.RunBenchmarkFromScratchReplan(b, 50) }},
	{"route/FromScratchReplan/sites=200", func(b *testing.B) { route.RunBenchmarkFromScratchReplan(b, 200) }},
	{"route/FromScratchReplan/sites=500", func(b *testing.B) { route.RunBenchmarkFromScratchReplan(b, 500) }},
	{"route/ReplanChurn/sites=500/dirty=1", func(b *testing.B) { route.RunBenchmarkReplanChurn(b, 500, 1) }},
	{"route/ReplanChurn/sites=500/dirty=10", func(b *testing.B) { route.RunBenchmarkReplanChurn(b, 500, 10) }},
	{"route/ReplanChurn/sites=500/dirty=100", func(b *testing.B) { route.RunBenchmarkReplanChurn(b, 500, 100) }},
	{"route/ReplanRepair/sites=500", func(b *testing.B) { route.RunBenchmarkReplanRepair(b, 500) }},

	// Whole pooled transfers of 1 MiB chunks, and lane failover churn.
	{"transfer/TransferDirect/chunks=100", func(b *testing.B) { transfer.RunBenchmarkTransfer(b, transfer.Direct, 100) }},
	{"transfer/TransferDirect/chunks=1000", func(b *testing.B) { transfer.RunBenchmarkTransfer(b, transfer.Direct, 1000) }},
	{"transfer/TransferDirect/chunks=10000", func(b *testing.B) { transfer.RunBenchmarkTransfer(b, transfer.Direct, 10000) }},
	{"transfer/TransferEnvAware/chunks=10000", func(b *testing.B) { transfer.RunBenchmarkTransfer(b, transfer.EnvAware, 10000) }},
	{"transfer/TransferMultipathDynamic/chunks=10000", func(b *testing.B) {
		transfer.RunBenchmarkTransfer(b, transfer.MultipathDynamic, 10000)
	}},
	{"transfer/TransferFailoverChurn/chunks=1000", func(b *testing.B) { transfer.RunBenchmarkFailoverChurn(b, 1000) }},

	// One steady-state dispatch round at 16 concurrent jobs.
	{"sched/SchedDispatch/jobs=16", func(b *testing.B) { sched.RunBenchmarkDispatch(b, 16) }},
}

// RunPerf runs every row of the micro-baseline through testing.Benchmark and
// returns the recording, stamped with the host it ran on.
func RunPerf() Perf {
	p := Perf{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Rows:       make(map[string]PerfResult, len(perfRows)),
	}
	for _, row := range perfRows {
		r := testing.Benchmark(row.run)
		p.Rows[row.key] = PerfResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	return p
}
