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
// same way: it must parse, cover every benchmark `-perf` sweeps, and hold
// the allocation-free data-plane budgets — event generation and steady-state
// watermark ticks allocate nothing, and the end-to-end pipeline stays at
// ≤ 1 alloc per event — and the time budgets of the alias-table key draw and
// the batch fold on the 2-vCPU reference host.
func TestStreamPerfBaselineFileValid(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_stream.json"))
	if err != nil {
		t.Fatalf("missing stream perf baseline (regenerate with `go run ./cmd/sagebench -perf`): %v", err)
	}
	var p PerfBaseline
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("BENCH_stream.json does not parse: %v", err)
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
	// Time budgets at 1000 keys. Before the alias table a Zipf-keyed event
	// cost 46–52 ns to draw and 60–67 ns through the pipeline; the recorded
	// numbers are 26–28 and 39–42.
	if r := p.Benchmarks["SensorGen/keys=1000"]; r.NsPerOp > 30 {
		t.Fatalf("SensorGen/keys=1000 costs %.1f ns/op in the committed baseline; the budget is 30", r.NsPerOp)
	}
	if r := p.Benchmarks["StreamPipeline/keys=1000"]; r.NsPerOp/workload.PipelineBatch > 45 {
		t.Fatalf("StreamPipeline/keys=1000 costs %.1f ns/event in the committed baseline; the budget is 45",
			r.NsPerOp/workload.PipelineBatch)
	}
}
