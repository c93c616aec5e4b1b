package bench

import (
	"fmt"
	"hash/fnv"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/stats"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

func init() {
	register(Experiment{
		ID: 20, Name: "scale", Figure: "E6",
		Desc: "Sharded event core on generated multi-region worlds: shard-count determinism at scale",
		Run:  expScale,
	})
}

// scaleShape returns the generated-world parameters for the scale
// experiment. Full mode runs a 120-site / 8-region world with ~143k global
// keys; quick mode shrinks to 40 sites. CLI overrides (-world-sites /
// -world-regions) replace the site/region counts.
func scaleShape(cfg Config) (sites, regions, keysPerSite int, rate float64, dur time.Duration) {
	sites, regions, keysPerSite, rate, dur = 120, 8, 1200, 800, 3*time.Minute
	if cfg.Quick {
		sites, regions, keysPerSite, rate, dur = 40, 4, 300, 200, 2*time.Minute
	}
	if cfg.WorldSites > 0 {
		sites = cfg.WorldSites
		regions = 8
		if cfg.WorldRegions > 0 {
			regions = cfg.WorldRegions
		}
		if regions > sites {
			regions = sites
		}
	}
	return sites, regions, keysPerSite, rate, dur
}

// scaleJob builds the scale experiment's streaming job on a generated
// world: every site except the region-0 hub streams Zipf-keyed events with
// a site-disjoint key population toward the hub sink.
func scaleJob(cfg Config, world *cloud.Topology, keysPerSite int, rate float64) core.JobSpec {
	job := core.JobSpec{
		Sink:     cloud.GeneratedHub(0),
		Window:   30 * time.Second,
		Agg:      stream.Mean,
		Strategy: transfer.ParallelStatic,
		Lanes:    2,
	}
	genRoot := rng.New(cfg.Seed).Split("scale-gens")
	for _, id := range world.SiteIDs() {
		if id == job.Sink {
			continue
		}
		gen := workload.NewSensorGen(genRoot.Split(string(id)), id, workload.SensorOpts{
			Keys: keysPerSite, Skew: 1.3, KeyPrefix: string(id) + "/",
		})
		job.Sources = append(job.Sources, core.SourceSpec{
			Site: id, Rate: workload.ConstantRate(rate), Gen: gen,
		})
	}
	return job
}

// runScaleJob runs the scale workload on a fresh engine with the given
// shard count and returns the report and the engine.
func runScaleJob(cfg Config, shards int) (*core.Report, *core.Engine) {
	sites, regions, keysPerSite, rate, dur := scaleShape(cfg)
	world := cloud.GenerateWorld(sites, regions, cfg.Seed)
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:     cfg.Seed,
		Topology: world,
		Net:      netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Monitor:  monitor.Options{Interval: 30 * time.Second},
		Params:   model.Default(),
		Shards:   shards,
	}), core.WithObservability(observer()))
	e.DeployEverywhere(cloud.Medium, 2)
	rep, err := e.Run(scaleJob(cfg, world, keysPerSite, rate), dur)
	if err != nil {
		panic(fmt.Sprintf("scale experiment: %v", err))
	}
	return rep, e
}

// answerFNV fingerprints the merged global answer: every (key, value) pair
// in deterministic key order. Two runs agree on this iff they computed the
// same analysis result.
func answerFNV(rep *core.Report) uint64 {
	h := fnv.New64a()
	for _, kv := range rep.Global.Result() {
		fmt.Fprintf(h, "%s=%.9g;", kv.Key, kv.Value)
	}
	return h.Sum64()
}

// expScale is the sharded-core scaling experiment: the same generated-world
// streaming job at shard counts 1/2/4/8, asserting byte-level agreement of
// every deterministic output. Wall-clock numbers deliberately stay out of
// the table: they vary per machine, and whether shards pay is measured end to
// end by the benchmark module (benchmark/), not by the suite.
func expScale(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	sites, regions, keysPerSite, rate, dur := scaleShape(cfg)
	shardCounts := []int{1, 2, 4, 8}

	type cell struct {
		rep    *core.Report
		rounds uint64
	}
	results := make([]cell, len(shardCounts))
	parMap(len(shardCounts), func(i int) {
		rep, e := runScaleJob(cfg, shardCounts[i])
		results[i] = cell{rep: rep, rounds: e.ShardRounds()}
	})

	world := cloud.GenerateWorld(sites, regions, cfg.Seed)
	wtb := stats.NewTable(
		fmt.Sprintf("E6: generated world (seed %d)", cfg.Seed),
		"sites", "regions", "directed links", "min WAN RTT", "sources", "global keys")
	wtb.Add(fmt.Sprint(sites), fmt.Sprint(regions),
		fmt.Sprint(len(world.Links())), fmt.Sprint(world.MinWANRTT()),
		fmt.Sprint(sites-1), fmt.Sprint((sites-1)*keysPerSite))

	base := results[0]
	tb := stats.NewTable(
		fmt.Sprintf("E6: sharded event core, %d sites x %d keys/site @ %.0f ev/s for %s",
			sites, keysPerSite, rate, dur),
		"shards", "stage rounds", "windows", "events", "WAN volume", "total cost",
		"global keys", "answer fnv64a", "vs 1 shard")
	for i, sc := range shardCounts {
		r := results[i]
		verdict := "identical"
		if r.rep.Windows != base.rep.Windows ||
			r.rep.TotalEvents != base.rep.TotalEvents ||
			r.rep.TotalBytes != base.rep.TotalBytes ||
			fmt.Sprintf("%.9g", r.rep.TotalCost) != fmt.Sprintf("%.9g", base.rep.TotalCost) ||
			r.rep.Global.Keys() != base.rep.Global.Keys() ||
			answerFNV(r.rep) != answerFNV(base.rep) {
			verdict = "DIVERGED"
		}
		tb.Add(fmt.Sprint(sc), fmt.Sprint(r.rounds),
			fmt.Sprint(r.rep.Windows), fmt.Sprint(r.rep.TotalEvents),
			stats.FmtBytes(r.rep.TotalBytes), stats.FmtMoney(r.rep.TotalCost),
			fmt.Sprint(r.rep.Global.Keys()),
			fmt.Sprintf("%016x", answerFNV(r.rep)), verdict)
	}
	return []*stats.Table{wtb, tb}
}
