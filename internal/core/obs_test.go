package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/obs"
	"sage/internal/transfer"
)

// obsEngine is quietEngine with the observability layer attached.
func obsEngine(seed uint64, ob *obs.Observer) *Engine {
	e := NewEngine(
		WithOptions(Options{
			Topology: cloud.DefaultAzure(),
			Net:      quietNetOptions(),
		}),
		WithSeed(seed),
		WithObservability(ob),
	)
	e.DeployEverywhere(cloud.Medium, 8)
	return e
}

func TestObservedRunExportsMetricsAndTimeline(t *testing.T) {
	ob := obs.NewObserver()
	e := obsEngine(1, ob)
	rep, err := e.Run(basicJob(transfer.EnvAware), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	reg := ob.Metrics
	if got := reg.Counter("sage_jobs_total", "").With().Value(); got != 1 {
		t.Fatalf("sage_jobs_total = %d, want 1", got)
	}
	sink := string(cloud.NorthUS)
	if got := reg.Counter("sage_windows_completed_total", "", "sink", "job").With(sink, "0").Value(); got != int64(rep.Windows) {
		t.Fatalf("windows metric = %d, report says %d", got, rep.Windows)
	}
	var events int64
	for _, site := range []cloud.SiteID{cloud.NorthEU, cloud.WestEU, cloud.SouthUS} {
		events += reg.Counter("sage_events_total", "", "site", "job").With(string(site), "0").Value()
	}
	if events != rep.TotalEvents {
		t.Fatalf("events metric = %d, report says %d", events, rep.TotalEvents)
	}
	h := reg.Histogram("sage_window_latency_seconds", "", obs.DefBuckets, "sink", "job").With(sink, "0")
	if h.Count() != int64(rep.Windows) {
		t.Fatalf("latency observations = %d, want %d", h.Count(), rep.Windows)
	}

	// The flight recorder holds the run's decision-loop phases.
	phases := map[obs.Phase]int{}
	for _, s := range ob.Timeline.Snapshot() {
		phases[s.Phase]++
	}
	for _, p := range []obs.Phase{obs.PhaseWindowClose, obs.PhaseDispatch, obs.PhaseMerge,
		obs.PhaseWindow, obs.PhaseTransfer, obs.PhaseRoute, obs.PhaseChunk} {
		if phases[p] == 0 {
			t.Errorf("no %v spans on the timeline", p)
		}
	}

	// Both exporters render the run.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `sage_windows_completed_total{sink="`+sink+`",job="0"} `) {
		t.Fatalf("prometheus export missing windows series:\n%s", prom.String())
	}
	var chrome strings.Builder
	if err := ob.Timeline.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"name":"transfer"`) {
		t.Fatal("chrome export missing transfer spans")
	}
}

// TestRegistryConcurrentEngines is the -race hammer: many engines, each its
// own goroutine and simulation, all recording into one shared Observer.
func TestRegistryConcurrentEngines(t *testing.T) {
	ob := obs.NewObserver()
	const engines = 6
	var wg sync.WaitGroup
	reps := make([]*Report, engines)
	for i := 0; i < engines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := obsEngine(uint64(i+1), ob)
			job := basicJob(transfer.EnvAware)
			rep, err := e.Run(job, 2*time.Minute)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()

	var wantJobs, wantWindows, wantEvents int64
	for _, rep := range reps {
		if rep == nil {
			t.Fatal("missing report")
		}
		wantJobs++
		wantWindows += int64(rep.Windows)
		wantEvents += rep.TotalEvents
	}
	reg := ob.Metrics
	if got := reg.Counter("sage_jobs_total", "").With().Value(); got != wantJobs {
		t.Fatalf("jobs = %d, want %d", got, wantJobs)
	}
	if got := reg.Counter("sage_windows_completed_total", "", "sink", "job").With(string(cloud.NorthUS), "0").Value(); got != wantWindows {
		t.Fatalf("windows = %d, want %d", got, wantWindows)
	}
	var events int64
	for _, site := range []cloud.SiteID{cloud.NorthEU, cloud.WestEU, cloud.SouthUS} {
		events += reg.Counter("sage_events_total", "", "site", "job").With(string(site), "0").Value()
	}
	if events != wantEvents {
		t.Fatalf("events = %d, want %d", events, wantEvents)
	}
}

// TestObservabilityInert pins the gating guarantee: the same seed produces an
// identical report with the layer on and off.
func TestObservabilityInert(t *testing.T) {
	run := func(ob *obs.Observer) *Report {
		t.Helper()
		e := obsEngine(3, ob)
		rep, err := e.Run(basicJob(transfer.MultipathDynamic), 4*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(nil)
	ob := obs.NewObserver()
	on := run(ob)
	if off.Windows != on.Windows || off.TotalBytes != on.TotalBytes ||
		off.TotalCost != on.TotalCost || off.TotalEvents != on.TotalEvents {
		t.Fatalf("observability changed the run: off=%+v on=%+v", off, on)
	}
	if len(off.Latencies) != len(on.Latencies) {
		t.Fatalf("latency counts differ: %d vs %d", len(off.Latencies), len(on.Latencies))
	}
	for i := range off.Latencies {
		if off.Latencies[i] != on.Latencies[i] {
			t.Fatalf("latency[%d] differs: %v vs %v", i, off.Latencies[i], on.Latencies[i])
		}
	}
	if ob.Timeline.Len() == 0 {
		t.Fatal("enabled run recorded no spans")
	}
}

func TestFunctionalOptionsCompose(t *testing.T) {
	ob := obs.NewObserver()
	e := NewEngine(WithSeed(9), WithObservability(ob))
	if e.Obs != ob {
		t.Fatal("WithObservability not applied")
	}
	// Options layer left to right: a later WithSeed wins.
	e2 := NewEngine(WithSeed(9), WithOptions(Options{}), WithSeed(5))
	_ = e2 // construction succeeding is the contract; seeds are internal
}
