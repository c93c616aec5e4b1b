// Geomapreduce: the scientific workload that motivated geo-distributed data
// management — a MapReduce job too large for one datacenter runs across
// three sites, and its partial results (1000 files per site) must reach a
// meta-reducer in a fourth. The example moves the same dataset three ways:
// staging through cloud storage (the provider's only native option), SAGE
// with environment-aware direct lanes, and SAGE with multi-datacenter paths,
// then prints the comparison.
package main

import (
	"fmt"
	"time"

	"sage/internal/baseline"
	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/transfer"
	"sage/internal/workload"
)

const (
	filesPerSite = 1000
	fileBytes    = 4 << 20 // 4 MiB partials
)

var sites = []cloud.SiteID{cloud.NorthEU, cloud.WestEU, cloud.SouthUS}

func sageRun(strategy transfer.Strategy) (*core.GatherReport, error) {
	engine := core.NewEngine(core.WithSeed(11))
	engine.DeployEverywhere(cloud.Medium, 8)
	engine.Sched.RunFor(time.Minute)
	return engine.Gather(core.GatherSpec{
		Partials: workload.Partials{Sites: sites, Files: filesPerSite, FileBytes: fileBytes},
		Sink:     cloud.NorthUS,
		Strategy: strategy,
		Lanes:    4,
		Intr:     0.5,
	})
}

func blobRun() (time.Duration, float64) {
	engine := core.NewEngine(core.WithSeed(11))
	store := baseline.NewBlobStore(engine.Net, cloud.NorthUS)
	remaining := len(sites)
	var makespan time.Duration
	var cost float64
	start := engine.Sched.Now()
	for _, site := range sites {
		src := engine.Net.NewNode(site, cloud.Medium)
		dst := engine.Net.NewNode(cloud.NorthUS, cloud.Medium)
		err := store.Relay(baseline.RelaySpec{
			Src: src, Dst: dst, Files: filesPerSite, FileBytes: fileBytes, Parallel: 4,
		}, func(r baseline.RelayResult) {
			remaining--
			cost += r.Cost
			if d := engine.Sched.Now() - start; d > makespan {
				makespan = d
			}
		})
		if err != nil {
			panic(err)
		}
	}
	for remaining > 0 {
		engine.Sched.RunFor(time.Minute)
	}
	return makespan, cost
}

func main() {
	total := int64(len(sites)) * filesPerSite * fileBytes
	fmt.Printf("moving %d files x %d sites (%.1f GiB) to the meta-reducer in %s\n\n",
		filesPerSite, len(sites), float64(total)/(1<<30), cloud.NorthUS)

	blobDur, blobCost := blobRun()
	fmt.Printf("%-22s %10v  $%.3f\n", "cloud storage staging:", blobDur.Round(time.Second), blobCost)

	for _, s := range []transfer.Strategy{transfer.EnvAware, transfer.MultipathDynamic} {
		rep, err := sageRun(s)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %10v  $%.3f  (%.1fx faster than staging)\n",
			"SAGE "+s.String()+":", rep.Makespan.Round(time.Second), rep.TotalCost,
			blobDur.Seconds()/rep.Makespan.Seconds())
	}
}
