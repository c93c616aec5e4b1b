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
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// agg_wide: 119 sources on a generated 120-site world stream Zipf-keyed
// events with site-disjoint keys towards one hub, pre-aggregated per window.
// Event generation and aggregation do nearly all the work; the WAN carries
// only small partials.
const (
	aggSites, aggRegions = 120, 8
	aggKeysPerSite       = 1200
	aggRate              = 800.0 // events/s per source
	aggWindow            = 30 * time.Second
	aggDuration          = 2 * time.Minute
	aggVerifyDuration    = time.Minute
)

var aggWide = &workloadDef{
	name: "agg_wide",
	why: "generation and aggregation own the run (119 Zipf sources, site-disjoint keys, tiny partials): " +
		"workload/rng/stream changes show here, transfer/netsim/route changes must not",
	unit: func(c *runCtx) (*unit, error) {
		u, _, err := aggRun(c, c.scaled(aggDuration, aggWindow))
		return u, err
	},
	verify: aggVerify,
}

// aggJob builds the job and its per-source generators. Generators derive
// from the seed alone, so calling it twice yields generators that draw
// identical event sequences.
func aggJob(seed uint64, world *cloud.Topology) core.JobSpec {
	job := core.JobSpec{
		Sink:     cloud.GeneratedHub(0),
		Window:   aggWindow,
		Agg:      stream.Mean,
		Strategy: transfer.ParallelStatic,
		Lanes:    2,
	}
	genRoot := rng.New(seed).Split("agg_wide-gens")
	for _, id := range world.SiteIDs() {
		if id == job.Sink {
			continue
		}
		gen := workload.NewSensorGen(genRoot.Split(string(id)), id, workload.SensorOpts{
			Keys: aggKeysPerSite, Skew: 1.3, KeyPrefix: string(id) + "/",
		})
		job.Sources = append(job.Sources, core.SourceSpec{
			Site: id, Rate: workload.ConstantRate(aggRate), Gen: gen,
		})
	}
	return job
}

// aggRun is one unit: build the world and the engine (set-up), run the job
// for dur of virtual time (wall), check the report's arithmetic.
func aggRun(c *runCtx, dur time.Duration) (*unit, simtime.Time, error) {
	u := &unit{}
	t0 := time.Now()

	end := c.tr.begin("cloud.GenerateWorld")
	world := cloud.GenerateWorld(aggSites, aggRegions, worldSeed)
	end()

	ob := newObserver(c)
	end = c.tr.begin("core.NewEngine")
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:     worldSeed,
		Topology: world,
		Net:      netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Monitor:  monitor.Options{Interval: 30 * time.Second},
		Params:   model.Default(),
		Shards:   1,
	}), core.WithObservability(ob))
	end()

	end = c.tr.begin("core.DeployEverywhere")
	e.DeployEverywhere(cloud.Medium, 2)
	end()

	end = c.tr.begin("workload.NewSensorGen")
	job := aggJob(c.seed, world)
	end()

	end = c.tr.begin("simtime.RunFor(warm-up)")
	e.Sched.RunFor(time.Minute)
	end()
	start := e.Sched.Now()
	u.setupS = time.Since(t0).Seconds()

	t1 := time.Now()
	end = c.tr.begin("core.Engine.Run")
	rep, err := e.Run(job, dur)
	end()
	if err != nil {
		return nil, 0, fmt.Errorf("agg_wide: %w", err)
	}
	u.wallS = time.Since(t1).Seconds()

	end = c.tr.begin("check")
	checkAggUnit(u, rep, job, start, int(dur/aggWindow))
	engineCounts(u, e, ob)
	end()
	return u, start, nil
}

// checkAggUnit checks the report's arithmetic and keeps the answer. (Every
// post-run function is named check*: the profile reader charges their CPU to
// the benchmark, not to the layers they call into.)
func checkAggUnit(u *unit, rep *core.Report, job core.JobSpec, start simtime.Time, windows int) {
	u.addReport(rep, windows)
	var wantEvents int64
	for _, s := range job.Sources {
		for w := 0; w < windows; w++ {
			wantEvents += int64(workload.EventCount(s.Rate, start+simtime.Time(w)*aggWindow, aggWindow))
		}
	}
	u.check(rep.TotalEvents == wantEvents, "agg_wide: TotalEvents = %d, want %d", rep.TotalEvents, wantEvents)
	u.check(rep.Windows == windows, "agg_wide: Windows = %d, want %d", rep.Windows, windows)
	u.check(rep.Incomplete == 0, "agg_wide: %d incomplete windows", rep.Incomplete)
	u.global = rep.Global.Result()
	u.fingerprint = reportFingerprint(rep, u.global)
	u.count("stream.global_keys", float64(rep.Global.Keys()))
}

// aggVerify runs the job for one virtual minute and compares the merged
// answer with a centralised aggregate over the same events, regenerated from
// generators built the same way. Generators are per source and drawn window
// by window in order, so regenerating source by source replays the exact
// sequences the engine consumed.
func aggVerify(c *runCtx, _ *unit) error {
	dur := c.scaled(aggVerifyDuration, aggWindow)
	u, start, err := aggRun(c.plain(), dur)
	if err != nil {
		return err
	}
	if u.checkErr != nil {
		return u.checkErr
	}
	world := cloud.GenerateWorld(aggSites, aggRegions, worldSeed)
	central := stream.NewKeyedAgg(stream.Mean)
	var buf []stream.Event
	for _, s := range aggJob(c.seed, world).Sources {
		for w := 0; w < int(dur/aggWindow); w++ {
			from := start + simtime.Time(w)*aggWindow
			buf = s.Gen.AppendEvents(buf[:0], workload.EventCount(s.Rate, from, aggWindow), from, aggWindow)
			for _, ev := range buf {
				central.AddValue(ev.Key, ev.Value)
			}
		}
	}
	if err := sameAnswer(u.global, central.Result()); err != nil {
		return fmt.Errorf("agg_wide: geo-distributed answer differs from the centralised one: %w", err)
	}
	return nil
}
