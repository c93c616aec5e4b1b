package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/workload"
)

// TestPerfBaselineFileValid guards the committed BENCH_netsim.json: it must
// parse and cover every micro-benchmark the -perf mode sweeps, so regression
// comparisons in future PRs never chase a stale or truncated baseline.
func TestPerfBaselineFileValid(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_netsim.json"))
	if err != nil {
		t.Fatalf("missing perf baseline (regenerate with `go run ./cmd/sagebench -perf`): %v", err)
	}
	var p PerfBaseline
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("BENCH_netsim.json does not parse: %v", err)
	}
	for _, n := range perfFlowCounts {
		for _, fam := range []string{"Reallocate", "FlowChurn"} {
			key := fmt.Sprintf("%s/flows=%d", fam, n)
			r, ok := p.Benchmarks[key]
			if !ok {
				t.Fatalf("baseline missing benchmark %q", key)
			}
			if r.NsPerOp <= 0 {
				t.Fatalf("baseline %q has non-positive ns/op: %+v", key, r)
			}
		}
	}
	if p.Exp08MultiDCMillis <= 0 {
		t.Fatal("baseline missing end-to-end exp08 timing")
	}
	// The component-scoped path: present, and allocation-free per event
	// (the foreground path allocates nothing; tenant arrivals stay under one
	// allocation per fired event).
	if r, ok := p.Benchmarks[perfRoughWorldKey]; !ok || r.NsPerOp <= 0 {
		t.Fatalf("baseline missing benchmark %q: %+v", perfRoughWorldKey, r)
	} else if r.AllocsPerOp != 0 {
		t.Fatalf("%s allocates %d per fired event in the committed baseline; the budget is 0", perfRoughWorldKey, r.AllocsPerOp)
	}
	for _, n := range perfFlowCounts {
		if r := p.Benchmarks[fmt.Sprintf("Reallocate/flows=%d", n)]; r.AllocsPerOp != 0 {
			t.Fatalf("Reallocate/flows=%d allocates %d per pass in the committed baseline; the budget is 0", n, r.AllocsPerOp)
		}
	}
	// The headline acceptance numbers for the incremental allocator: churn
	// at 1000 concurrent flows stays allocation-light. A regression that
	// reintroduces per-event map/sort allocation trips this immediately
	// when the baseline is regenerated.
	if r := p.Benchmarks["FlowChurn/flows=1000"]; r.AllocsPerOp > 100 {
		t.Fatalf("FlowChurn/flows=1000 allocates %d per op in the committed baseline; the incremental allocator budget is <100", r.AllocsPerOp)
	}
}

// TestStreamPerfBaselineFileValid guards the committed BENCH_stream.json the
// same way: it must parse, say how many cores it was recorded on, cover every
// benchmark `-perf` sweeps, and hold the allocation-free data-plane budgets —
// the samplers, event generation and steady-state watermark ticks allocate
// nothing, and the stage pipeline stays at ≤ 1 alloc per event — and the time
// budgets of the draw and the columnar fold on the 2-vCPU reference host.
func TestStreamPerfBaselineFileValid(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_stream.json"))
	if err != nil {
		t.Fatalf("missing stream perf baseline (regenerate with `go run ./cmd/sagebench -perf`): %v", err)
	}
	var p PerfBaseline
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("BENCH_stream.json does not parse: %v", err)
	}
	if p.Cores < 1 || p.GOMAXPROCS < 1 {
		t.Fatalf("baseline does not state its host (cores %d, GOMAXPROCS %d): re-record with `go run ./cmd/sagebench -perf`", p.Cores, p.GOMAXPROCS)
	}
	// The two normal samplers, ns per variate. The ziggurat exists because it
	// is cheaper: a recording in which it is not says one of them regressed.
	polar, zig := p.Benchmarks[perfPolarKey], p.Benchmarks[perfZigguratKey]
	if polar.NsPerOp <= 0 || zig.NsPerOp <= 0 || polar.AllocsPerOp != 0 || zig.AllocsPerOp != 0 {
		t.Fatalf("baseline sampler rows: polar %+v, ziggurat %+v; both must be present at 0 allocs/op", polar, zig)
	}
	if zig.NsPerOp > polar.NsPerOp/2 {
		t.Fatalf("ziggurat costs %.1f ns a variate against %.1f for the polar method in the committed baseline; the budget is half", zig.NsPerOp, polar.NsPerOp)
	}
	for _, k := range perfKeyCounts {
		for _, fam := range []string{"SensorGen", "WindowAggDense", "WindowAggMap", "StreamPipeline"} {
			key := fmt.Sprintf("%s/keys=%d", fam, k)
			r, ok := p.Benchmarks[key]
			if !ok {
				t.Fatalf("baseline missing benchmark %q", key)
			}
			if r.NsPerOp <= 0 {
				t.Fatalf("baseline %q has non-positive ns/op: %+v", key, r)
			}
		}
	}
	for _, key := range []string{"SlidingAdvanceEmpty", "WindowJoinAdvanceEmpty"} {
		r, ok := p.Benchmarks[key]
		if !ok {
			t.Fatalf("baseline missing benchmark %q", key)
		}
		if r.AllocsPerOp != 0 {
			t.Fatalf("%s allocates %d per op in the committed baseline; the steady-state watermark-tick budget is 0", key, r.AllocsPerOp)
		}
	}
	for _, k := range perfKeyCounts {
		key := fmt.Sprintf("SensorGen/keys=%d", k)
		if r := p.Benchmarks[key]; r.AllocsPerOp != 0 {
			t.Fatalf("%s allocates %d per op; interned key generation must be allocation-free", key, r.AllocsPerOp)
		}
		key = fmt.Sprintf("StreamPipeline/keys=%d", k)
		// One pipeline op pushes PipelineBatch events; ≤ 1 alloc/event.
		if r := p.Benchmarks[key]; r.AllocsPerOp > workload.PipelineBatch {
			t.Fatalf("%s allocates %d per %d-event op; the budget is ≤ 1 alloc per event", key, r.AllocsPerOp, workload.PipelineBatch)
		}
	}
	// Time budgets at 1000 keys: the recorded numbers + 30 %. With struct
	// events, the polar value draw and the per-event fold a Zipf-keyed event
	// cost 26–28 ns to draw and 39–42 ns through the pipeline; two
	// recordings of the columnar kernel gave 9.2–10.4 and 20.2–21.5.
	if r := p.Benchmarks["SensorGen/keys=1000"]; r.NsPerOp > 13.5 {
		t.Fatalf("SensorGen/keys=1000 costs %.1f ns/op in the committed baseline; the budget is 13.5", r.NsPerOp)
	}
	if r := p.Benchmarks["StreamPipeline/keys=1000"]; r.NsPerOp/workload.PipelineBatch > 26 {
		t.Fatalf("StreamPipeline/keys=1000 costs %.1f ns/event in the committed baseline; the budget is 26",
			r.NsPerOp/workload.PipelineBatch)
	}
}
