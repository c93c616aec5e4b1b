// Command sagebench regenerates the SAGE evaluation: every table and figure
// of the reconstructed experiment suite (see DESIGN.md). Without flags it
// runs everything; -exp selects one experiment, -quick shrinks sizes, -csv
// emits machine-readable output, -list shows the index. -perf skips the
// tables and instead measures the netsim allocator and streaming data-plane
// micro-benchmarks, writing the machine-readable baselines used for
// regression tracking.
// -cpuprofile/-memprofile capture pprof profiles of whatever mode runs.
//
// Examples:
//
//	sagebench -list
//	sagebench -exp 3
//	sagebench -quick -seed 7
//	sagebench -exp 9 -csv > f9.csv
//	sagebench -perf                       # rewrites every BENCH_*.json baseline (netsim, stream, obs, scale, route, transfer, sched)
//	sagebench -exp 20 -shards 4           # scale experiment on a 4-shard core
//	sagebench -quick -cpuprofile cpu.out  # profile the whole quick suite
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"sage/internal/bench"
)

func main() {
	var (
		expID           = flag.Int("exp", 0, "experiment ID to run (0 = all)")
		quick           = flag.Bool("quick", false, "reduced sizes/durations")
		seed            = flag.Uint64("seed", 1, "random seed")
		csv             = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list            = flag.Bool("list", false, "list experiments and exit")
		perf            = flag.Bool("perf", false, "run perf baselines and write -perf-out / -perf-stream-out / -perf-obs-out")
		perfOut         = flag.String("perf-out", "BENCH_netsim.json", "output path for the netsim -perf baseline")
		perfStreamOut   = flag.String("perf-stream-out", "BENCH_stream.json", "output path for the stream -perf baseline")
		perfObsOut      = flag.String("perf-obs-out", "BENCH_obs.json", "output path for the observability -perf baseline")
		perfScaleOut    = flag.String("perf-scale-out", "BENCH_scale.json", "output path for the shard-scaling -perf baseline")
		perfRouteOut    = flag.String("perf-route-out", "BENCH_route.json", "output path for the route-planner -perf baseline")
		perfTransferOut = flag.String("perf-transfer-out", "BENCH_transfer.json", "output path for the transfer-executor -perf baseline")
		perfSchedOut    = flag.String("perf-sched-out", "BENCH_sched.json", "output path for the multi-job scheduler -perf baseline")
		shards          = flag.Int("shards", 0, "event-core shards for every experiment (0 = 1 or $SAGE_SHARDS; results are byte-identical for any count)")
		worldSites      = flag.Int("world-sites", 0, "override the generated-world site count of the scale experiment")
		worldRegions    = flag.Int("world-regions", 0, "override the generated-world region count of the scale experiment")
		cpuprofile      = flag.String("cpuprofile", "", "write CPU profile to file")
		memprofile      = flag.String("memprofile", "", "write heap profile to file")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-4s %-16s %-6s %s\n", "ID", "NAME", "FIG", "DESCRIPTION")
		for _, e := range bench.All() {
			fmt.Printf("%-4d %-16s %-6s %s\n", e.ID, e.Name, e.Figure, e.Desc)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
	}()

	if *perf {
		fmt.Fprintln(os.Stderr, "measuring netsim perf baseline (takes ~15s)...")
		p := bench.RunPerfBaseline()
		if err := os.WriteFile(*perfOut, p.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for _, n := range []int{10, 100, 1000} {
			key := fmt.Sprintf("FlowChurn/flows=%d", n)
			r := p.Benchmarks[key]
			fmt.Fprintf(os.Stderr, "%-26s %12.0f ns/op %6d allocs/op\n", key, r.NsPerOp, r.AllocsPerOp)
		}
		rw := p.Benchmarks["RoughWorldEvent/sites=60"]
		fmt.Fprintf(os.Stderr, "%-26s %12.0f ns/op %6d allocs/op\n", "RoughWorldEvent/sites=60", rw.NsPerOp, rw.AllocsPerOp)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfOut)

		fmt.Fprintln(os.Stderr, "measuring stream perf baseline...")
		s := bench.RunStreamPerfBaseline()
		if err := os.WriteFile(*perfStreamOut, s.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for _, key := range []string{
			"NormFloat64/polar", "NormFloat64/ziggurat",
			"SensorGen/keys=1000", "SensorGen/keys=20000/uniform", "WindowAggDense/keys=1000",
			"WindowAggDense/keys=20000/uniform", "WindowAggDense/keys=20000/uniform/min",
			"WindowAggMap/keys=1000", "StreamPipeline/keys=1000",
		} {
			r := s.Benchmarks[key]
			fmt.Fprintf(os.Stderr, "%-38s %12.0f ns/op %6d allocs/op\n", key, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfStreamOut)

		fmt.Fprintln(os.Stderr, "measuring observability perf baseline...")
		o := bench.RunObsPerfBaseline()
		if err := os.WriteFile(*perfObsOut, o.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for _, key := range []string{
			"CounterInc", "GaugeSet", "HistogramObserve",
			"DisabledCounterInc", "TimelineRecord",
		} {
			r := o.Benchmarks[key]
			fmt.Fprintf(os.Stderr, "%-26s %12.1f ns/op %6d allocs/op\n", key, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "exp19 quick: %.1f ms off, %.1f ms on (%+.2f%%)\n",
			o.Exp19RecoveryMillisOff, o.Exp19RecoveryMillisOn, o.Exp19ObsOverheadPct)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfObsOut)

		fmt.Fprintln(os.Stderr, "measuring shard-scaling baseline (120-site world at 1/2/4/8 shards)...")
		sc := bench.RunScalePerfBaseline()
		if err := os.WriteFile(*perfScaleOut, sc.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		mk := sc.Benchmarks["MillionKeyPipeline"]
		fmt.Fprintf(os.Stderr, "%-26s %12.0f ns/op %6d allocs/op\n", "MillionKeyPipeline", mk.NsPerOp, mk.AllocsPerOp)
		for _, r := range sc.Runs {
			fmt.Fprintf(os.Stderr, "scale shards=%d: %8.1f ms wall, %d stage rounds\n", r.Shards, r.Millis, r.StageRounds)
		}
		fmt.Fprintf(os.Stderr, "speedup at 4 shards: %.2fx on %d cores (GOMAXPROCS=%d)\n",
			sc.SpeedupAt4Shards, sc.Cores, sc.GOMAXPROCS)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfScaleOut)

		fmt.Fprintln(os.Stderr, "measuring route-planner baseline (50/200/500-site worlds)...")
		rt := bench.RunRoutePerfBaseline()
		if err := os.WriteFile(*perfRouteOut, rt.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for _, key := range []string{
			"WidestPath/sites=500", "FromScratchReplan/sites=500",
			"ReplanChurn/sites=500/dirty=10", "ReplanRepair/sites=500",
		} {
			r := rt.Benchmarks[key]
			fmt.Fprintf(os.Stderr, "%-32s %12.0f ns/op %6d allocs/op\n", key, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "replan speedup at 10 dirty edges: %.0fx over from-scratch\n", rt.ReplanSpeedup10At500)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfRouteOut)

		fmt.Fprintln(os.Stderr, "measuring transfer-executor baseline (100/1k/10k-chunk transfers)...")
		tr := bench.RunTransferPerfBaseline()
		if err := os.WriteFile(*perfTransferOut, tr.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for _, key := range []string{
			"TransferDirect/chunks=10000", "TransferEnvAware/chunks=10000",
			"TransferMultipathDynamic/chunks=10000", "TransferFailoverChurn/chunks=1000",
		} {
			r := tr.Benchmarks[key]
			fmt.Fprintf(os.Stderr, "%-38s %12.0f ns/op %6d allocs/op\n", key, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "alloc reduction vs pre-rewrite executor at 10k chunks: %.0fx (speedup %.1fx)\n",
			tr.AllocReduction10k, tr.Speedup10k)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfTransferOut)

		fmt.Fprintln(os.Stderr, "measuring multi-job scheduler baseline (dispatch + contention run)...")
		sc2 := bench.RunSchedPerfBaseline()
		if err := os.WriteFile(*perfSchedOut, sc2.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for key, r := range sc2.Benchmarks {
			fmt.Fprintf(os.Stderr, "%-32s %12.0f ns/op %6d allocs/op\n", key, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "contention run: %d jobs, %d events, %.0f events/sec/core\n",
			sc2.ContentionJobs, sc2.Events, sc2.EventsPerSecCore)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *perfSchedOut)
		return
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick,
		Shards: *shards, WorldSites: *worldSites, WorldRegions: *worldRegions}
	run := func(e bench.Experiment) {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %d/%s (%s)...\n", e.ID, e.Name, e.Figure)
		tables := e.Run(cfg)
		for _, tb := range tables {
			if *csv {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		fmt.Fprintf(os.Stderr, "done %d/%s in %v\n", e.ID, e.Name, time.Since(start).Round(time.Millisecond))
	}

	if *expID != 0 {
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "sagebench: unknown experiment %d (try -list)\n", *expID)
			os.Exit(1)
		}
		run(e)
		return
	}
	// Run-all mode fans experiments across cores (bench.RunAll) and prints
	// results in ID order, so stdout is byte-identical to a serial run.
	start := time.Now()
	results := bench.RunAll(cfg)
	for _, res := range results {
		e := res.Experiment
		fmt.Fprintf(os.Stderr, "ran %d/%s (%s) in %v\n", e.ID, e.Name, e.Figure, res.Elapsed.Round(time.Millisecond))
		for _, tb := range res.Tables {
			if *csv {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "suite done in %v\n", time.Since(start).Round(time.Millisecond))
}
