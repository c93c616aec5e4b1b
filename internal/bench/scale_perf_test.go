package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestScalePerfBaselineFileValid guards the committed BENCH_scale.json:
// it must parse, cover the full shard sweep on a ≥100-site world, and hold
// the machine-independent budget — the million-key pipeline allocates
// nothing per op in steady state. The wall-clock speedup at 4 shards is a
// parallelism claim, so a baseline recorded on fewer than 2 cores is
// rejected outright and the budget scales with the cores it had: ≥1.25x on
// 2–3 cores, ≥2.5x on 4 or more.
func TestScalePerfBaselineFileValid(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_scale.json"))
	if err != nil {
		t.Fatalf("missing scale baseline (regenerate with `go run ./cmd/sagebench -perf`): %v", err)
	}
	var p ScaleBaseline
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("BENCH_scale.json does not parse: %v", err)
	}
	if p.GoVersion == "" || p.GOARCH == "" {
		t.Fatalf("baseline missing toolchain stamp: %+v", p)
	}
	if p.Cores < 2 || p.GOMAXPROCS < 2 {
		t.Fatalf("baseline recorded on %d cores (GOMAXPROCS %d): shard scaling needs >= 2, re-record with `go run ./cmd/sagebench -perf`",
			p.Cores, p.GOMAXPROCS)
	}
	mk, ok := p.Benchmarks["MillionKeyPipeline"]
	if !ok {
		t.Fatal("baseline missing MillionKeyPipeline benchmark")
	}
	if mk.NsPerOp <= 0 {
		t.Fatalf("MillionKeyPipeline has non-positive ns/op: %+v", mk)
	}
	if mk.AllocsPerOp != 0 {
		t.Fatalf("MillionKeyPipeline allocates %d per op in the committed baseline; the million-key steady-state budget is 0", mk.AllocsPerOp)
	}
	if p.WorldSites < 100 {
		t.Fatalf("scaling curve measured on a %d-site world; the budget requires >= 100 sites", p.WorldSites)
	}
	seen := make(map[int]ScaleRun)
	for _, r := range p.Runs {
		if r.Millis <= 0 || r.Events <= 0 || r.Windows <= 0 {
			t.Fatalf("degenerate scale run: %+v", r)
		}
		seen[r.Shards] = r
	}
	for _, shards := range scalePerfShardCounts {
		r, ok := seen[shards]
		if !ok {
			t.Fatalf("baseline missing scale run at %d shards", shards)
		}
		// Every run simulates the same world and workload, so the
		// deterministic outputs must agree across the sweep.
		if r.Events != seen[1].Events || r.Windows != seen[1].Windows {
			t.Fatalf("run at %d shards diverges from 1-shard run: %+v vs %+v", shards, r, seen[1])
		}
		if shards > 1 && r.StageRounds == 0 {
			t.Fatalf("run at %d shards reports zero stage rounds; the parallel executor never engaged", shards)
		}
	}
	budget := 1.25
	if p.Cores >= 4 {
		budget = 2.5
	}
	if p.SpeedupAt4Shards < budget {
		t.Fatalf("speedup at 4 shards is %.2fx on a %d-core host; the budget is >= %.2fx",
			p.SpeedupAt4Shards, p.Cores, budget)
	}
}
