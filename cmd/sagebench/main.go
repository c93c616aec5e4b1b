// Command sagebench regenerates the SAGE evaluation: every table and figure
// of the reconstructed experiment suite (see DESIGN.md). Without flags it
// runs everything; -exp selects one experiment, -quick shrinks sizes, -csv
// emits machine-readable output, -list shows the index. -perf skips the
// tables and instead runs the per-layer micro-benchmarks (netsim, stream,
// obs, scale, route, transfer, sched), writing the one baseline,
// BENCH.json, to -perf-out.
// -cpuprofile/-memprofile capture pprof profiles of whatever mode runs,
// error exits included.
//
// Examples:
//
//	sagebench -list
//	sagebench -exp 3
//	sagebench -quick -seed 7
//	sagebench -exp 9 -csv > f9.csv
//	sagebench -perf                       # rewrites BENCH.json (≈ 70 s)
//	sagebench -exp 20 -shards 4           # scale experiment on a 4-shard core
//	sagebench -quick -cpuprofile cpu.out  # profile the whole quick suite
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"sage/internal/bench"
	"sage/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command; it returns the exit status, so the deferred
// profile writes run before the process exits on every path.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("sagebench", flag.ContinueOnError)
	var (
		expID        = fs.Int("exp", 0, "experiment ID to run (0 = all)")
		quick        = fs.Bool("quick", false, "reduced sizes/durations")
		seed         = fs.Uint64("seed", 1, "random seed")
		csv          = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		list         = fs.Bool("list", false, "list experiments and exit")
		perf         = fs.Bool("perf", false, "run the micro-baseline and write it to -perf-out")
		perfOut      = fs.String("perf-out", "BENCH.json", "output path of the -perf baseline")
		shards       = fs.Int("shards", 0, "event-core shards for every experiment (0 = 1 or $SAGE_SHARDS; results are byte-identical for any count)")
		worldSites   = fs.Int("world-sites", 0, "override the generated-world site count of the scale experiment")
		worldRegions = fs.Int("world-regions", 0, "override the generated-world region count of the scale experiment")
		cpuprofile   = fs.String("cpuprofile", "", "write CPU profile to file")
		memprofile   = fs.String("memprofile", "", "write heap profile to file")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
		return 1
	}

	if *list {
		fmt.Printf("%-4s %-16s %-6s %s\n", "ID", "NAME", "FIG", "DESCRIPTION")
		for _, e := range bench.All() {
			fmt.Printf("%-4d %-16s %-6s %s\n", e.ID, e.Name, e.Figure, e.Desc)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			code = fail(err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			code = fail(err)
		}
	}()

	if *perf {
		fmt.Fprintln(os.Stderr, "measuring the micro-baseline (≈ 70 s)...")
		p := bench.RunPerf()
		out, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*perfOut, append(out, '\n'), 0o644); err != nil {
			return fail(err)
		}
		keys := make([]string, 0, len(p.Rows))
		for k := range p.Rows {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			r := p.Rows[k]
			fmt.Fprintf(os.Stderr, "%-46s %14.1f ns/op %6d allocs/op %9d B/op\n", k, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cores, GOMAXPROCS %d)\n", *perfOut, p.Cores, p.GOMAXPROCS)
		return 0
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick,
		Shards: *shards, WorldSites: *worldSites, WorldRegions: *worldRegions}
	emit := func(tables []*stats.Table) {
		for _, tb := range tables {
			if *csv {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
	}

	if *expID != 0 {
		e, ok := bench.ByID(*expID)
		if !ok {
			return fail(fmt.Errorf("unknown experiment %d (try -list)", *expID))
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %d/%s (%s)...\n", e.ID, e.Name, e.Figure)
		emit(e.Run(cfg))
		fmt.Fprintf(os.Stderr, "done %d/%s in %v\n", e.ID, e.Name, time.Since(start).Round(time.Millisecond))
		return 0
	}
	// Run-all mode fans experiments across cores (bench.RunAll) and prints
	// results in ID order, so stdout is byte-identical to a serial run.
	start := time.Now()
	for _, res := range bench.RunAll(cfg) {
		e := res.Experiment
		fmt.Fprintf(os.Stderr, "ran %d/%s (%s) in %v\n", e.ID, e.Name, e.Figure, res.Elapsed.Round(time.Millisecond))
		emit(res.Tables)
	}
	fmt.Fprintf(os.Stderr, "suite done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
