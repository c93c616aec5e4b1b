package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/resilience"
	"sage/internal/stream"
	"sage/internal/transfer"
)

// These tests exercise the resilience subsystem end to end: checkpointed
// operator state, heartbeat failure detection, replay after a source-site
// outage, and meta-reducer failover after a sink-site outage.

func resilientJob(strategy transfer.Strategy, ckpt time.Duration) JobSpec {
	job := basicJob(strategy)
	job.Resilience = &resilience.Config{CheckpointInterval: ckpt}
	return job
}

func killSite(e *Engine, site cloud.SiteID, at time.Duration) {
	e.Sched.At(at, func() {
		for _, n := range e.Mgr.Pool(site) {
			e.Net.KillNode(n)
		}
	})
}

func restoreSite(e *Engine, site cloud.SiteID, at time.Duration) {
	e.Sched.At(at, func() {
		for _, n := range e.Mgr.Pool(site) {
			e.Net.RestoreNode(n)
		}
	})
}

// sameGlobal fails the test unless a recovered run's answer is the unfailed
// run's: counts and extrema exact, sums up to the rounding a different merge
// order of the partials leaves.
func sameGlobal(t *testing.T, want, got *stream.KeyedAgg) {
	t.Helper()
	ws, gs := want.Snapshot(), got.Snapshot()
	if len(gs) != len(ws) {
		t.Fatalf("global has %d keys, want %d", len(gs), len(ws))
	}
	for i, w := range ws {
		g := gs[i]
		if g.Key != w.Key || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max ||
			math.Abs(g.Sum-w.Sum) > 1e-9*math.Abs(w.Sum) {
			t.Fatalf("global cell %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestRecoveredRunMatchesUnfailedResult is the subsystem's core property:
// a run that loses a source site mid-stream and recovers it produces the
// same final global aggregate as a run with no failure at all. Event
// generation is deterministic and independent of network timing, so replay
// must reconstruct exactly the lost windows.
func TestRecoveredRunMatchesUnfailedResult(t *testing.T) {
	clean := quietEngine(71)
	cleanRep, err := clean.Run(basicJob(transfer.EnvAware), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	e := quietEngine(71)
	killSite(e, cloud.NorthEU, 65*time.Second)
	restoreSite(e, cloud.NorthEU, 125*time.Second)
	rep, err := e.Run(resilientJob(transfer.EnvAware, 30*time.Second), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Windows != cleanRep.Windows {
		t.Fatalf("windows = %d after recovery, want %d", rep.Windows, cleanRep.Windows)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d windows incomplete after recovery", rep.Incomplete)
	}
	sameGlobal(t, cleanRep.Global, rep.Global)

	rm := rep.Resilience
	if rm == nil {
		t.Fatal("no resilience metrics on a resilient run")
	}
	if rm.Failures < 1 || rm.Recoveries < 1 {
		t.Fatalf("failures=%d recoveries=%d, want >=1 each", rm.Failures, rm.Recoveries)
	}
	if rm.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want several over 5m at 30s", rm.Checkpoints)
	}
	if rm.ReplayedWindows == 0 {
		t.Fatal("outage produced no replayed windows")
	}
	if rm.DetectTime <= 0 {
		t.Fatalf("detect time = %v, want > 0", rm.DetectTime)
	}
	if rm.RecoveryTime <= 0 {
		t.Fatalf("recovery time = %v, want > 0", rm.RecoveryTime)
	}
	if cleanRep.Resilience != nil {
		t.Fatal("non-resilient run carries resilience metrics")
	}
}

// TestSinkFailoverReElectsMetaReducer kills the sink site mid-run: the
// widest-path planner must re-elect a reachable replacement, restore its
// state from the checkpoint, and the job must keep completing windows.
func TestSinkFailoverReElectsMetaReducer(t *testing.T) {
	e := quietEngine(73)
	killSite(e, cloud.NorthUS, 95*time.Second)
	rep, err := e.Run(resilientJob(transfer.EnvAware, 30*time.Second), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rm := rep.Resilience
	if rm == nil {
		t.Fatal("no resilience metrics")
	}
	if rm.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", rm.Failovers)
	}
	if rep.Windows < 8 {
		t.Fatalf("only %d/10 windows completed after failover", rep.Windows)
	}
	if rep.Incomplete > 2 {
		t.Fatalf("%d windows incomplete after failover", rep.Incomplete)
	}
	// Windows that completed after the failover must credit the new sink.
	newSinkWindows := 0
	for _, sw := range rep.SiteWindows {
		if sw.Site != cloud.NorthUS && sw.Window.End > simDur(95*time.Second) {
			newSinkWindows++
		}
	}
	if newSinkWindows == 0 {
		t.Fatal("no windows shipped toward the failover sink")
	}
}

func simDur(d time.Duration) time.Duration { return d }

// TestResilientRunWithoutFailuresMatchesPlain asserts the guard is inert
// when nothing fails: same windows, same global answer, zero duplicate or
// replayed work.
func TestResilientRunWithoutFailuresMatchesPlain(t *testing.T) {
	plain := quietEngine(74)
	plainRep, err := plain.Run(basicJob(transfer.EnvAware), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	e := quietEngine(74)
	rep, err := e.Run(resilientJob(transfer.EnvAware, 30*time.Second), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != plainRep.Windows || rep.TotalEvents != plainRep.TotalEvents {
		t.Fatalf("resilient quiet run diverged: %d/%d windows, %d/%d events",
			rep.Windows, plainRep.Windows, rep.TotalEvents, plainRep.TotalEvents)
	}
	if rep.TotalBytes != plainRep.TotalBytes {
		t.Fatalf("bytes diverged: %d vs %d", rep.TotalBytes, plainRep.TotalBytes)
	}
	rm := rep.Resilience
	if rm.Failures != 0 || rm.ReplayedWindows != 0 || rm.DuplicateBytes != 0 {
		t.Fatalf("quiet run shows failure work: %+v", rm)
	}
	if rm.Checkpoints == 0 {
		t.Fatal("no checkpoints on a resilient run")
	}
}

// TestConcurrentResilientJobsShareDetector starts two resilient jobs on one
// engine: both must survive the same source outage, sharing the engine-wide
// heartbeat detector.
func TestConcurrentResilientJobsShareDetector(t *testing.T) {
	e := quietEngine(75)
	killSite(e, cloud.NorthEU, 65*time.Second)
	restoreSite(e, cloud.NorthEU, 125*time.Second)
	jobA := resilientJob(transfer.EnvAware, 30*time.Second)
	jobB := resilientJob(transfer.Direct, 60*time.Second)
	runA, err := e.Start(jobA, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := e.Start(jobB, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	reps := e.Wait(5*time.Minute, runA, runB)
	for i, rep := range reps {
		if rep.Resilience == nil || rep.Resilience.Failures < 1 {
			t.Fatalf("job %d missed the outage: %+v", i, rep.Resilience)
		}
		if rep.Incomplete != 0 {
			t.Fatalf("job %d left %d windows incomplete", i, rep.Incomplete)
		}
	}
	if e.det == nil {
		t.Fatal("engine has no shared detector")
	}
}

// TestResilientEnginesRaceClean runs independent resilient engines in
// parallel goroutines; under -race this shakes out any hidden shared state
// between engine instances.
func TestResilientEnginesRaceClean(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			e := quietEngine(seed)
			killSite(e, cloud.NorthEU, 65*time.Second)
			restoreSite(e, cloud.NorthEU, 125*time.Second)
			rep, err := e.Run(resilientJob(transfer.EnvAware, 30*time.Second), 4*time.Minute)
			if err != nil {
				errs <- err
				return
			}
			if rep.Resilience.Failures < 1 {
				errs <- fmt.Errorf("seed %d: no failure detected", seed)
			}
		}(uint64(80 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
