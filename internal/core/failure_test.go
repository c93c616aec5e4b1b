package core

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/transfer"
)

// These tests inject infrastructure failures under a running job and assert
// the engine's resilience properties: no lost windows when redundancy
// exists, graceful degradation when it does not, recovery afterwards.

func TestJobSurvivesPartialSiteOutage(t *testing.T) {
	e := quietEngine(61)
	job := basicJob(transfer.EnvAware)
	// Kill half of NEU's workers mid-run.
	e.Sched.At(70*time.Second, func() {
		pool := e.Mgr.Pool(cloud.NorthEU)
		for i := 0; i < len(pool)/2; i++ {
			e.Net.KillNode(pool[i])
		}
	})
	rep, err := e.Run(job, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d windows incomplete despite surviving workers", rep.Incomplete)
	}
	if rep.Windows != 10 {
		t.Fatalf("windows = %d, want 10", rep.Windows)
	}
}

func TestJobRecoversAfterFullSourcePoolOutage(t *testing.T) {
	e := quietEngine(62)
	job := basicJob(transfer.EnvAware)
	job.Sources = job.Sources[:1] // NEU only
	// Kill the whole NEU pool, then restore it a minute later.
	e.Sched.At(65*time.Second, func() {
		for _, n := range e.Mgr.Pool(cloud.NorthEU) {
			e.Net.KillNode(n)
		}
	})
	e.Sched.At(125*time.Second, func() {
		for _, n := range e.Mgr.Pool(cloud.NorthEU) {
			e.Net.RestoreNode(n)
		}
	})
	rep, err := e.Run(job, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Everything ships eventually: the watchdog retries stalled chunks
	// until the pool returns.
	if rep.Windows+rep.Incomplete != 10 {
		t.Fatalf("accounting off: %d complete + %d incomplete", rep.Windows, rep.Incomplete)
	}
	if rep.Windows < 8 {
		t.Fatalf("only %d windows completed after recovery", rep.Windows)
	}
	// Outage-era windows show inflated latency.
	maxLat := time.Duration(0)
	for _, l := range rep.Latencies {
		if l > maxLat {
			maxLat = l
		}
	}
	if maxLat < 30*time.Second {
		t.Fatalf("outage left no latency trace: max %v", maxLat)
	}
}

func TestJobSurvivesLinkBlackout(t *testing.T) {
	e := quietEngine(63)
	job := basicJob(transfer.EnvAware)
	job.Sources = job.Sources[:1] // NEU -> NUS only
	e.Sched.At(70*time.Second, func() {
		e.Net.SetLinkScale(cloud.NorthEU, cloud.NorthUS, 0.01)
	})
	e.Sched.At(130*time.Second, func() {
		e.Net.SetLinkScale(cloud.NorthEU, cloud.NorthUS, 1)
	})
	rep, err := e.Run(job, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows < 8 {
		t.Fatalf("blackout sank the job: %d windows", rep.Windows)
	}
}
