package bench

import (
	"encoding/json"
	"runtime"
	"testing"

	"sage/internal/workload"
)

// ScaleRun is one wall-clock measurement of the scale experiment's workload
// at a fixed shard count.
type ScaleRun struct {
	Shards      int     `json:"shards"`
	Millis      float64 `json:"wall_ms"`
	StageRounds uint64  `json:"stage_rounds"`
	Events      int64   `json:"events"`
	Windows     int     `json:"windows"`
}

// ScaleBaseline is the machine-readable scaling snapshot written to
// BENCH_scale.json by `sagebench -perf`. Unlike the micro-benchmark
// baselines it records the host's core count: shard scaling is a
// parallelism claim, and a wall-clock curve measured on a single-core
// machine says nothing about it. TestScalePerfBaselineFileValid therefore
// rejects a baseline recorded on fewer than 2 cores and scales the speedup
// budget with the core count.
type ScaleBaseline struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Benchmarks holds the million-key data-plane micro-benchmark; its
	// allocation budget (0 allocs/op steady state) is machine-independent.
	Benchmarks map[string]PerfResult `json:"benchmarks"`
	// WorldSites/WorldRegions describe the generated world the wall-clock
	// runs simulate.
	WorldSites   int `json:"world_sites"`
	WorldRegions int `json:"world_regions"`
	// Runs is the wall-clock scaling curve over shard counts 1/2/4/8.
	Runs []ScaleRun `json:"runs"`
	// SpeedupAt4Shards is wall(1 shard) / wall(4 shards).
	SpeedupAt4Shards float64 `json:"speedup_at_4_shards"`
}

// scalePerfShardCounts is the shard sweep of the scaling curve; each point
// is the fastest of scalePerfReps runs, after one discarded warm-up run (a
// cold heap otherwise inflates the 1-shard time the speedup divides by).
var scalePerfShardCounts = []int{1, 2, 4, 8}

const scalePerfReps = 3

// RunScalePerfBaseline measures the million-key pipeline micro-benchmark
// and the full-mode scale workload (120-site generated world) at each shard
// count, and returns the snapshot written to BENCH_scale.json.
func RunScalePerfBaseline() ScaleBaseline {
	p := ScaleBaseline{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]PerfResult),
	}
	r := testing.Benchmark(workload.RunBenchmarkMillionKeyPipeline)
	p.Benchmarks["MillionKeyPipeline"] = PerfResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}

	cfg := Config{Seed: 1}.withDefaults()
	p.WorldSites, p.WorldRegions, _, _, _ = scaleShape(cfg)
	var wall1, wall4 float64
	runScaleJob(cfg, 1)
	for _, shards := range scalePerfShardCounts {
		rep, e, elapsed := runScaleJob(cfg, shards)
		for i := 1; i < scalePerfReps; i++ {
			if _, _, again := runScaleJob(cfg, shards); again < elapsed {
				elapsed = again
			}
		}
		ms := float64(elapsed.Microseconds()) / 1e3
		p.Runs = append(p.Runs, ScaleRun{
			Shards:      shards,
			Millis:      ms,
			StageRounds: e.ShardRounds(),
			Events:      rep.TotalEvents,
			Windows:     rep.Windows,
		})
		switch shards {
		case 1:
			wall1 = ms
		case 4:
			wall4 = ms
		}
	}
	if wall4 > 0 {
		p.SpeedupAt4Shards = wall1 / wall4
	}
	return p
}

// JSON renders the baseline as indented JSON with a trailing newline.
func (p ScaleBaseline) JSON() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(err) // static struct: cannot fail
	}
	return append(b, '\n')
}
