// Sensorfusion: a realistic multi-site telemetry pipeline. Five datacenters
// each ingest a diurnal stream of skewed sensor readings; a filter drops
// out-of-range samples, per-sensor maxima are aggregated locally, and
// windowed partials are shipped over multi-datacenter paths to a
// meta-reducer. The same pipeline then runs centralized (every raw event
// shipped to the sink) to show what local aggregation saves in WAN bytes,
// money and window latency.
package main

import (
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/rng"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

func run(shipRaw bool) *core.Report {
	engine := core.NewEngine(core.WithSeed(7))
	engine.DeployEverywhere(cloud.Medium, 6)
	engine.Sched.RunFor(time.Minute) // let the monitor learn the links

	gens := rng.New(7)
	var sources []core.SourceSpec
	for _, site := range engine.Net.Topology().SiteIDs() {
		if site == cloud.NorthUS {
			continue // the sink hosts no sensors
		}
		sources = append(sources, core.SourceSpec{
			Site: site,
			// Day/night modulation, peak ~1500 ev/s.
			Rate: workload.DiurnalRate(1000, 0.5, 24*time.Hour),
			Gen: workload.NewSensorGen(gens.Split(string(site)), site, workload.SensorOpts{
				Keys: 500, Skew: 1.4, Mean: 50, Stddev: 12,
			}),
		})
	}

	report, err := engine.Run(core.JobSpec{
		Sources: sources,
		Sink:    cloud.NorthUS,
		Window:  time.Minute,
		Agg:     stream.Max,
		// Physically impossible readings are sensor faults: drop them.
		Map: func(_ string, v float64) (float64, bool) {
			return v, v > 0 && v < 150
		},
		ShipRaw:  shipRaw,
		Strategy: transfer.MultipathDynamic,
		Intr:     0.25, // transfers share VMs with the ingest pipeline
	}, 15*time.Minute)
	if err != nil {
		panic(err)
	}
	return report
}

func main() {
	for _, mode := range []struct {
		name string
		raw  bool
	}{{"SAGE (local partials)", false}, {"centralized (ship raw)", true}} {
		rep := run(mode.raw)
		fmt.Printf("%-24s %d windows, p95 latency %5.2fs, WAN %8d KB, spent $%.4f\n",
			mode.name+":", rep.Windows, rep.LatencySummary.P95,
			rep.TotalBytes/1024, rep.TotalCost)
	}
	rep := run(false)
	fmt.Println("\nhottest sensors across all sites (window max):")
	for _, kv := range rep.Global.TopK(5) {
		fmt.Printf("  %s peaked at %.1f\n", kv.Key, kv.Value)
	}
}
