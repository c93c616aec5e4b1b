package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/stream"
	"sage/internal/workload"
)

// PerfResult is one micro-benchmark measurement.
type PerfResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfBaseline is the machine-readable performance snapshot written to
// BENCH_netsim.json by `sagebench -perf`. Future PRs regenerate the snapshot
// on the same machine and compare against the committed copy to detect
// allocator regressions (see the Performance section of DESIGN.md).
type PerfBaseline struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	// Cores and GOMAXPROCS state the recording host: a time budget means
	// nothing without them. Baselines recorded before the fields existed
	// omit them.
	Cores      int                   `json:"cores,omitempty"`
	GOMAXPROCS int                   `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]PerfResult `json:"benchmarks"`
	// Exp08MultiDCMillis is the wall-clock time of one quick-mode run of
	// the end-to-end multi-datacenter experiment (seed 1). Only the netsim
	// baseline records it; the stream baseline omits it.
	Exp08MultiDCMillis float64 `json:"exp08_multidc_quick_ms,omitempty"`
	// Exp19RecoveryMillisOff/On are best-of-N wall-clock times of a
	// quick-mode recovery-experiment run (seed 1) with the observability
	// layer detached and attached; Exp19ObsOverheadPct is the relative
	// cost of turning the layer on. Only the obs baseline records them.
	Exp19RecoveryMillisOff float64 `json:"exp19_recovery_quick_ms_off,omitempty"`
	Exp19RecoveryMillisOn  float64 `json:"exp19_recovery_quick_ms_on,omitempty"`
	Exp19ObsOverheadPct    float64 `json:"exp19_obs_overhead_pct,omitempty"`
}

// newPerfBaseline returns an empty snapshot stamped with the toolchain.
func newPerfBaseline() PerfBaseline {
	return PerfBaseline{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]PerfResult),
	}
}

// record stores one testing.Benchmark result under the given name.
func (p *PerfBaseline) record(name string, r testing.BenchmarkResult) {
	p.Benchmarks[name] = PerfResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// perfFlowCounts are the concurrent-flow scales the micro-benchmarks sweep.
var perfFlowCounts = []int{10, 100, 1000}

// perfRoughWorldKey names the component-scoped reallocation row: ns per fired
// event on raw_rough's 60-site world with cross-traffic and glitches on.
const perfRoughWorldKey = "RoughWorldEvent/sites=60"

// RunPerfBaseline measures the netsim allocator micro-benchmarks
// (Reallocate — one world-wide pass — and FlowChurn at 10/100/1000
// concurrent flows, and the per-event cost on the rough world, where passes
// are component-scoped) plus one end-to-end quick experiment, and returns the
// snapshot.
func RunPerfBaseline() PerfBaseline {
	p := newPerfBaseline()
	p.record(perfRoughWorldKey, testing.Benchmark(netsim.RunBenchmarkRoughWorld))
	for _, n := range perfFlowCounts {
		n := n
		p.record(fmt.Sprintf("Reallocate/flows=%d", n),
			testing.Benchmark(func(b *testing.B) { netsim.RunBenchmarkReallocate(b, n) }))
		p.record(fmt.Sprintf("FlowChurn/flows=%d", n),
			testing.Benchmark(func(b *testing.B) { netsim.RunBenchmarkFlowChurn(b, n) }))
	}
	if e, ok := ByID(8); ok {
		start := time.Now()
		e.Run(Config{Seed: 1, Quick: true})
		p.Exp08MultiDCMillis = float64(time.Since(start).Microseconds()) / 1e3
	}
	return p
}

// perfKeyCounts are the key-cardinality scales the stream micro-benchmarks
// sweep.
var perfKeyCounts = []int{100, 1000}

// perfUniformKeys name the rows at resil_recover's shape, 20 000 uniform
// keys: the draw (the multiply-reduced uniform key fill, where the Zipf rows
// measure the alias table), and the columnar fold of one 100 000-event window,
// where the cells miss the cache, for the sum loop (Mean) and an extreme loop
// (Min).
const (
	perfUniformKeyCount = 20000
	perfUniformDrawKey  = "SensorGen/keys=20000/uniform"
	perfUniformMeanKey  = "WindowAggDense/keys=20000/uniform"
	perfUniformMinKey   = "WindowAggDense/keys=20000/uniform/min"
)

// perfNormalKeys name the rows of the two standard-normal samplers, ns per
// variate: the polar method the world's weather draws from and the ziggurat
// that draws workload values, measured as the engine draws from it, a block
// at a time.
const (
	perfPolarKey    = "NormFloat64/polar"
	perfZigguratKey = "NormFloat64/ziggurat"
)

// RunStreamPerfBaseline measures the streaming data-plane micro-benchmarks
// (the two normal samplers, event generation, dense vs map windowed
// aggregation, the fill→fold→advance pipeline a source's stage runs and the
// columnar fold over 20 000 uniform keys) and returns the snapshot written to
// BENCH_stream.json.
func RunStreamPerfBaseline() PerfBaseline {
	p := newPerfBaseline()
	p.record(perfPolarKey, testing.Benchmark(rng.RunBenchmarkNormFloat64))
	p.record(perfZigguratKey, testing.Benchmark(rng.RunBenchmarkZigNormFloat64))
	for _, k := range perfKeyCounts {
		k := k
		p.record(fmt.Sprintf("SensorGen/keys=%d", k),
			testing.Benchmark(func(b *testing.B) { workload.RunBenchmarkSensorGen(b, k, 1.3) }))
		p.record(fmt.Sprintf("WindowAggDense/keys=%d", k),
			testing.Benchmark(func(b *testing.B) { stream.RunBenchmarkWindowAggDense(b, k) }))
		p.record(fmt.Sprintf("WindowAggMap/keys=%d", k),
			testing.Benchmark(func(b *testing.B) { stream.RunBenchmarkWindowAggMap(b, k) }))
		p.record(fmt.Sprintf("StreamPipeline/keys=%d", k),
			testing.Benchmark(func(b *testing.B) { workload.RunBenchmarkStreamPipeline(b, k) }))
	}
	p.record(perfUniformDrawKey, testing.Benchmark(func(b *testing.B) {
		workload.RunBenchmarkSensorGen(b, perfUniformKeyCount, 0)
	}))
	p.record(perfUniformMeanKey, testing.Benchmark(func(b *testing.B) {
		stream.RunBenchmarkWindowAggDenseUniform(b, perfUniformKeyCount, stream.Mean)
	}))
	p.record(perfUniformMinKey, testing.Benchmark(func(b *testing.B) {
		stream.RunBenchmarkWindowAggDenseUniform(b, perfUniformKeyCount, stream.Min)
	}))
	return p
}

// JSON renders the baseline as indented JSON with a trailing newline.
func (p PerfBaseline) JSON() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(err) // static struct: cannot fail
	}
	return append(b, '\n')
}
