package main

import (
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/sched"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// raw_rough: the E7 contention roster (eight ship_raw jobs of four tenants
// on a generated 60-site world, same-tenant jobs sharing their spokes) under
// fair-share with preemption, in rough weather with cross-traffic. Few
// stream events, many WAN bytes: the network simulator, the transfer
// executor, the planner and the scheduler do the work.
const (
	rawSites, rawRegions = 60, 6
	rawEventBytes        = 50000
	rawUtil              = 0.6 // share of a spoke→hub link one job alone fills
	rawWindow            = 30 * time.Second
	rawJobDuration       = 2 * time.Minute
	rawStagger           = 10 * time.Second
	rawCrossTrafficGap   = 2 * time.Minute // the calibration dial: netsim cost grows as it shrinks
	// Multipath plans are drawn from MaxPaths+2 candidate paths and only paths
	// of at most three sites are admitted; with the default 3 the plan comes
	// up empty on this world once glitches reorder the candidates, the
	// transfer is refused and the partial is lost. 8 keeps every seed tried
	// free of failed operations.
	rawMaxPaths = 8
	// Seeds perturb each source's rate by up to ±0.25 % and each arrival by up to
	// 5 s: different inputs, statistically the same load.
	rawRateJitter    = 0.0025
	rawArrivalJitter = 5 * time.Second
)

var rawStrategies = []transfer.Strategy{
	transfer.MultipathDynamic, transfer.EnvAware, transfer.WidestDynamic, transfer.Direct,
}

var rawRough = &workloadDef{
	name: "raw_rough",
	why: "the same engine with the opposite profile (8 ship_raw jobs, GBs over a glitchy WAN with cross-traffic): " +
		"netsim/transfer/route/monitor/sched changes show here, a generator speed-up must not",
	unit: rawRun, // every check of this workload runs inside the unit; there is no verify step
}

// rawRoster builds the eight jobs. Rates are sized against each source's own
// spoke→hub link, so the roster depends on the world alone.
func rawRoster(seed uint64, world *cloud.Topology, dur time.Duration) []sched.JobSpec {
	seeded := rng.New(seed).Split("raw_rough")
	jitter := seeded.Split("jitter")
	sink := cloud.GeneratedHub(0)
	roster := make([]sched.JobSpec, 0, 8)
	for j := 0; j < 8; j++ {
		tenant := j / 2
		// Tenant t's two spokes are the first non-hub sites of region t+1.
		region := tenant + 1
		spokes := []cloud.SiteID{
			cloud.GeneratedSiteID(region + rawRegions),
			cloud.GeneratedSiteID(region + 2*rawRegions),
		}
		js := core.JobSpec{
			Sink:     sink,
			Window:   rawWindow,
			Agg:      stream.Sum,
			Strategy: rawStrategies[j%len(rawStrategies)],
			Lanes:    4,
			MaxPaths: rawMaxPaths,
			Intr:     0.5,
			ShipRaw:  true,
		}
		for _, sp := range spokes {
			rate := rawUtil * (1 + rawRateJitter*(2*jitter.Float64()-1)) * world.Link(sp, sink).BaseMBps * 1e6 / rawEventBytes
			js.Sources = append(js.Sources, core.SourceSpec{
				Site: sp, Rate: workload.ConstantRate(rate), EventBytes: rawEventBytes,
				Gen: workload.NewSensorGen(seeded.Split(fmt.Sprintf("gen/%d/%s", j, sp)), sp, workload.SensorOpts{}),
			})
		}
		spec := sched.JobSpec{
			Name:     fmt.Sprintf("%c%d", 'A'+tenant, j%2),
			Tenant:   string(rune('A' + tenant)),
			Arrival:  time.Duration(j)*rawStagger + time.Duration(jitter.Float64()*float64(rawArrivalJitter)),
			Duration: dur,
			Spec:     js,
		}
		if j%4 == 3 {
			spec.Priority = 1 // two late high-priority jobs make preemption happen
		}
		roster = append(roster, spec)
	}
	return roster
}

func rawRun(c *runCtx) (*unit, error) {
	u := &unit{}
	dur := c.scaled(rawJobDuration, rawWindow)
	t0 := time.Now()

	end := c.tr.begin("cloud.GenerateWorld")
	world := cloud.GenerateWorld(rawSites, rawRegions, worldSeed)
	end()

	ob := newObserver(c)
	end = c.tr.begin("core.NewEngine")
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:     worldSeed,
		Topology: world,
		Net: netsim.Options{
			GlitchMeanGap: 3 * time.Minute, GlitchMeanDur: 90 * time.Second,
			GlitchDepthMin: 0.1, GlitchDepthMax: 0.4,
			CrossTrafficMeanGap: rawCrossTrafficGap,
		},
		Monitor:  monitor.Options{Interval: 30 * time.Second},
		Transfer: transfer.Options{ChunkBytes: 1 << 20},
		Params:   model.Default(),
		Shards:   1,
	}), core.WithObservability(ob))
	end()

	end = c.tr.begin("core.DeployEverywhere")
	e.DeployEverywhere(cloud.Medium, 4)
	end()

	end = c.tr.begin("simtime.RunFor(warm-up)")
	e.Sched.RunFor(time.Minute)
	end()

	roster := rawRoster(c.seed, world, dur)
	u.setupS = time.Since(t0).Seconds()

	t1 := time.Now()
	end = c.tr.begin("sched.Submit")
	s := sched.New(e, sched.Options{MaxConcurrent: 4, Policy: sched.FairShare{}, Preempt: true})
	for _, j := range roster {
		if err := s.Submit(j); err != nil {
			end()
			return nil, fmt.Errorf("raw_rough: %w", err)
		}
	}
	end()
	end = c.tr.begin("sched.Scheduler.Run")
	m, err := s.Run()
	end()
	if err != nil {
		return nil, fmt.Errorf("raw_rough: %w", err)
	}
	u.wallS = time.Since(t1).Seconds()

	end = c.tr.begin("check")
	checkRawUnit(u, m, roster, e, int(dur/rawWindow))
	engineCounts(u, e, ob)
	end()
	return u, nil
}

// checkRawUnit checks window completion, the event arithmetic and that
// per-job egress attribution adds up to the per-site totals byte for byte.
func checkRawUnit(u *unit, m *sched.MultiReport, roster []sched.JobSpec, e *core.Engine, windows int) {
	var wantEvents int64
	for i, jr := range m.Jobs {
		u.addReport(jr.Report, windows)
		u.check(jr.Report.Windows == windows && jr.Report.Incomplete == 0,
			"raw_rough: job %s completed %d of %d windows (%d incomplete)",
			jr.Name, jr.Report.Windows, windows, jr.Report.Incomplete)
		for _, src := range roster[i].Spec.Sources {
			wantEvents += int64(windows) * int64(workload.EventCount(src.Rate, 0, rawWindow))
		}
	}
	u.check(m.TotalEvents == wantEvents, "raw_rough: TotalEvents = %d, want %d", m.TotalEvents, wantEvents)
	var perJob, perSite int64
	for i := 0; i < e.Net.JobsSeen(); i++ {
		perJob += e.Net.JobEgressBytes(i)
	}
	for _, id := range e.Net.Topology().SiteIDs() {
		perSite += e.Net.EgressBytes(id)
	}
	u.check(perJob == perSite && perJob > 0,
		"raw_rough: per-job egress %d B does not add up to per-site egress %d B", perJob, perSite)
	u.fingerprint = fmt.Sprintf("%016x", m.Fingerprint())
	schedCounts(u, m)
}
