package sched

import (
	"fmt"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// newBenchScheduler builds a scheduler mid-flight: `jobs` long-running jobs
// admitted and four more queued behind a full slot table, the state every
// tick pays for while a roster drains.
func newBenchScheduler(jobs int) (*Scheduler, *core.Engine) {
	world := cloud.GenerateWorld(24, 4, 1)
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:     1,
		Topology: world,
		Net:      netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Monitor:  monitor.Options{Interval: time.Minute},
		Params:   model.Default(),
	}))
	e.DeployEverywhere(cloud.Medium, 2)
	s := New(e, Options{MaxConcurrent: jobs, Policy: FairShare{}, Preempt: true})
	for i := 0; i < jobs+4; i++ {
		spec := core.JobSpec{
			Sink:     cloud.GeneratedHub(0),
			Window:   30 * time.Second,
			Agg:      stream.Sum,
			Strategy: transfer.Direct,
			Lanes:    2,
			Intr:     1,
			ShipRaw:  true,
		}
		spoke := cloud.GeneratedSiteID(4 + i%20)
		spec.Sources = append(spec.Sources, core.SourceSpec{
			Site: spoke, Rate: workload.ConstantRate(100), EventBytes: 1000,
		})
		if err := s.Submit(JobSpec{
			Name:     fmt.Sprintf("bench%d", i),
			Tenant:   fmt.Sprintf("t%d", i%4),
			Duration: time.Hour,
			Spec:     spec,
		}); err != nil {
			panic(err)
		}
	}
	s.started = true
	for _, j := range s.jobs {
		s.arrive(j)
	}
	return s, e
}

// RunBenchmarkDispatch measures one steady-state scheduling round at the
// given concurrency: a full slot table to reap-scan, a non-empty queue that
// cannot admit, and a preemption reconcile pass. This is the per-tick
// dispatch hot path; its budget is zero allocations per Step.
func RunBenchmarkDispatch(b *testing.B, jobs int) {
	s, e := newBenchScheduler(jobs)
	now := e.Sched.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(now)
	}
}
