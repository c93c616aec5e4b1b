package core

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// TestMultipathWithoutPlanShipsDirect is the lost-window regression: on the
// 60-site generated world in rough weather with cross-traffic, a
// MultipathDynamic job at the default MaxPaths meets transfers for which the
// planner finds no multipath plan once glitches reorder the candidate paths.
// Such a transfer starts on the direct link instead of being refused, so no
// window is left incomplete.
func TestMultipathWithoutPlanShipsDirect(t *testing.T) {
	const (
		regions   = 6
		eventSize = 50000
	)
	world := cloud.GenerateWorld(60, regions, 1)
	e := NewEngine(WithOptions(Options{
		Seed:     1,
		Topology: world,
		Net: netsim.Options{
			GlitchMeanGap: 3 * time.Minute, GlitchMeanDur: 90 * time.Second,
			GlitchDepthMin: 0.1, GlitchDepthMax: 0.4,
			CrossTrafficMeanGap: 2 * time.Minute,
		},
		Monitor:  monitor.Options{Interval: 30 * time.Second},
		Transfer: transfer.Options{ChunkBytes: 1 << 20},
		Params:   model.Default(),
		Shards:   1,
	}))
	e.DeployEverywhere(cloud.Medium, 4)
	e.Sched.RunFor(time.Minute)
	sink := cloud.GeneratedHub(0)
	job := JobSpec{
		Sink:     sink,
		Window:   30 * time.Second,
		Agg:      stream.Sum,
		Strategy: transfer.MultipathDynamic,
		Lanes:    4,
		Intr:     0.5,
		ShipRaw:  true,
	}
	for region := 1; region < regions; region++ {
		for _, site := range []cloud.SiteID{
			cloud.GeneratedSiteID(region + regions), cloud.GeneratedSiteID(region + 2*regions),
		} {
			rate := 0.6 * world.Link(site, sink).BaseMBps * 1e6 / eventSize
			job.Sources = append(job.Sources, SourceSpec{
				Site: site, Rate: workload.ConstantRate(rate), EventBytes: eventSize,
			})
		}
	}
	rep, err := e.Run(job, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 || rep.Windows != 8 {
		t.Fatalf("%d of 8 windows complete, %d incomplete", rep.Windows, rep.Incomplete)
	}
}
