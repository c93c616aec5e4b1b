package core

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// quietEngine builds an engine on the default Azure topology with
// variability suppressed for exact assertions.
func quietEngine(seed uint64) *Engine {
	topo := cloud.DefaultAzure()
	e := NewEngine(WithOptions(Options{
		Seed:     seed,
		Topology: topo,
		Net:      quietNetOptions(),
	}))
	e.DeployEverywhere(cloud.Medium, 8)
	return e
}

func basicJob(strategy transfer.Strategy) JobSpec {
	return JobSpec{
		Sources: []SourceSpec{
			{Site: cloud.NorthEU, Rate: workload.ConstantRate(200)},
			{Site: cloud.WestEU, Rate: workload.ConstantRate(200)},
			{Site: cloud.SouthUS, Rate: workload.ConstantRate(200)},
		},
		Sink:     cloud.NorthUS,
		Window:   30 * time.Second,
		Agg:      stream.Mean,
		Strategy: strategy,
		Lanes:    2,
		Intr:     1,
	}
}

func TestJobRunsAndCompletesWindows(t *testing.T) {
	e := quietEngine(1)
	rep, err := e.Run(basicJob(transfer.EnvAware), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 10 {
		t.Fatalf("completed %d windows, want 10", rep.Windows)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d incomplete windows", rep.Incomplete)
	}
	if rep.TotalEvents < 3*200*30*9 {
		t.Fatalf("events = %d, too few", rep.TotalEvents)
	}
	if rep.Global.Keys() == 0 {
		t.Fatal("global aggregate empty")
	}
	if rep.TotalCost <= 0 || rep.TotalBytes <= 0 {
		t.Fatalf("totals: cost=%v bytes=%v", rep.TotalCost, rep.TotalBytes)
	}
}

func TestJobLatencyReasonable(t *testing.T) {
	e := quietEngine(2)
	rep, err := e.Run(basicJob(transfer.EnvAware), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Latencies) != rep.Windows {
		t.Fatal("latency per completed window missing")
	}
	for _, l := range rep.Latencies {
		if l <= 0 || l > 30*time.Second {
			t.Fatalf("window latency %v out of range", l)
		}
	}
	if rep.LatencySummary.N != rep.Windows {
		t.Fatal("summary not over all windows")
	}
}

func TestLocalAggBeatsShipRaw(t *testing.T) {
	// Shipping partials must move far fewer bytes than shipping raw
	// events — the reason local aggregation exists.
	agg, err := quietEngine(3).Run(basicJob(transfer.EnvAware), 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	job := basicJob(transfer.EnvAware)
	job.ShipRaw = true
	raw, err := quietEngine(3).Run(job, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalBytes*10 > raw.TotalBytes {
		t.Fatalf("partials %d bytes vs raw %d: expected >=10x reduction",
			agg.TotalBytes, raw.TotalBytes)
	}
	if agg.LatencySummary.Mean >= raw.LatencySummary.Mean {
		t.Fatalf("partials latency %.2fs should beat raw %.2fs",
			agg.LatencySummary.Mean, raw.LatencySummary.Mean)
	}
	// Same analytical answer either way.
	if agg.Global.Keys() != raw.Global.Keys() {
		t.Fatal("aggregation answers diverge between modes")
	}
}

func TestGlobalAggregateMatchesDirectComputation(t *testing.T) {
	// One source, count aggregation: the global result must equal the
	// number of generated events per key overall.
	e := quietEngine(4)
	job := JobSpec{
		Sources:  []SourceSpec{{Site: cloud.NorthEU, Rate: workload.ConstantRate(100)}},
		Sink:     cloud.NorthUS,
		Window:   30 * time.Second,
		Agg:      stream.Count,
		Strategy: transfer.Direct,
		Intr:     1,
	}
	rep, err := e.Run(job, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, kv := range rep.Global.Result() {
		total += kv.Value
	}
	if int64(total) != rep.TotalEvents {
		t.Fatalf("global count %v != events %d", total, rep.TotalEvents)
	}
}

func TestMapFilterApplied(t *testing.T) {
	e := quietEngine(5)
	job := basicJob(transfer.Direct)
	job.Sources = job.Sources[:1]
	job.Map = func(string, float64) (float64, bool) { return 0, false } // drop all
	rep, err := e.Run(job, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEvents != 0 {
		t.Fatalf("filter ignored: %d events", rep.TotalEvents)
	}
	// Empty partials still ship (the envelope) and windows complete.
	if rep.Windows == 0 {
		t.Fatal("no windows completed")
	}
}

func TestSinkLocalSourceSkipsWAN(t *testing.T) {
	e := quietEngine(6)
	job := JobSpec{
		Sources:  []SourceSpec{{Site: cloud.NorthUS, Rate: workload.ConstantRate(100)}},
		Sink:     cloud.NorthUS,
		Window:   30 * time.Second,
		Agg:      stream.Sum,
		Strategy: transfer.Direct,
	}
	rep, err := e.Run(job, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCost != 0 {
		t.Fatalf("local-only job accrued cost %v", rep.TotalCost)
	}
	for _, l := range rep.Latencies {
		if l != 0 {
			t.Fatalf("local window latency %v, want 0", l)
		}
	}
}

func TestBudgetPerWindowControlsLanes(t *testing.T) {
	// A generous budget must engage at least as many nodes as a tight one.
	run := func(budget float64) int {
		e := quietEngine(7)
		job := basicJob(transfer.EnvAware)
		job.Sources = job.Sources[:1]
		job.BudgetPerWindow = budget
		job.Intr = 1
		rep, err := e.Run(job, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		maxLanes := 0
		for _, sw := range rep.SiteWindows {
			if sw.Lanes > maxLanes {
				maxLanes = sw.Lanes
			}
		}
		return maxLanes
	}
	tight := run(0.000001)
	generous := run(10)
	if generous < tight {
		t.Fatalf("generous budget used %d nodes < tight %d", generous, tight)
	}
}

func TestJobValidation(t *testing.T) {
	e := quietEngine(8)
	bad := []JobSpec{
		{},
		{Sources: []SourceSpec{{Site: "NEU"}}, Sink: "NUS", Window: time.Second},
		{Sources: []SourceSpec{{Site: "NEU", Rate: workload.ConstantRate(1)}}, Window: time.Second},
		{Sources: []SourceSpec{{Site: "NEU", Rate: workload.ConstantRate(1)}}, Sink: "XXX", Window: time.Second},
	}
	for i, job := range bad {
		if _, err := e.Run(job, time.Minute); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Report {
		rep, err := quietEngine(42).Run(basicJob(transfer.EnvAware), 3*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TotalEvents != b.TotalEvents || a.TotalBytes != b.TotalBytes ||
		a.TotalCost != b.TotalCost || a.Windows != b.Windows {
		t.Fatalf("non-deterministic:\n%+v\n%+v", a, b)
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, a.Latencies[i], b.Latencies[i])
		}
	}
}
