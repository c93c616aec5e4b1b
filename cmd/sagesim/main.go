// Command sagesim runs one geo-distributed streaming job on the simulated
// cloud and prints a run report: windows completed, latency percentiles,
// bytes moved, money spent, and the top keys of the global answer.
//
// Example:
//
//	sagesim -sources NEU,WEU,SUS -sink NUS -rate 1000 -window 30s \
//	        -minutes 10 -strategy envaware -budget 0.02
//
// -world-sites N swaps the built-in topology for a generated N-site world
// (sink defaults to the region-0 hub, sources to every other site), and
// -shards K runs the event core on K parallel shards (default: one per core,
// for flag-built jobs and rosters alike) — results are byte-identical for
// every K:
//
//	sagesim -world-sites 200 -world-regions 8 -shards 4 -rate 100 -minutes 5
//
// -jobs-file runs a multi-job roster under the admission scheduler: the JSON
// scenario carries a "jobs" array (name, tenant, priority, arrival plus the
// usual job fields) and an optional "scheduler" block (max_concurrent,
// policy fifo|fair|sjf, preempt):
//
//	sagesim -jobs-file examples/multijob/jobs.json
//
// -report-json additionally writes the multi-job report as the versioned
// api/v1 wire document — the same JSON the saged daemon serves at
// /api/v1/report.
//
// -trace writes the run's event timeline as JSON Lines, for flag-built jobs,
// -scenario files and -jobs-file rosters alike.
//
// -cpuprofile/-memprofile capture pprof profiles of the run, mirroring the
// same flags on sagebench.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/scenario"
	"sage/internal/sched"
	"sage/internal/stats"
	"sage/internal/stream"
	"sage/internal/trace"
	"sage/internal/transfer"
	"sage/internal/workload"
)

var strategies = map[string]transfer.Strategy{
	"direct":    transfer.Direct,
	"parallel":  transfer.ParallelStatic,
	"envaware":  transfer.EnvAware,
	"widest":    transfer.WidestDynamic,
	"multipath": transfer.MultipathDynamic,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command; it returns the exit status, so the deferred
// profile writes run before the process exits on every path.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("sagesim", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "run a JSON scenario file instead of flag-built job")
		jobsFile     = fs.String("jobs-file", "", "run a multi-job JSON scenario (a scenario file with a jobs roster) under the admission scheduler")
		reportJSON   = fs.String("report-json", "", "with -jobs-file: also write the multi-job report as api/v1 JSON to this file (\"-\" for stdout)")

		sources   = fs.String("sources", "NEU,WEU,SUS", "comma-separated source sites")
		sink      = fs.String("sink", "NUS", "sink (meta-reducer) site")
		rate      = fs.Float64("rate", 1000, "events/second per source site")
		window    = fs.Duration("window", 30*time.Second, "tumbling window width")
		minutes   = fs.Float64("minutes", 10, "virtual minutes of stream")
		strategy  = fs.String("strategy", "envaware", "direct|parallel|envaware|widest|multipath")
		budget    = fs.Float64("budget", 0, "max $ per window transfer (0 = unconstrained)")
		raw       = fs.Bool("raw", false, "ship raw events instead of partials (centralized baseline)")
		seed      = fs.Uint64("seed", 1, "random seed")
		workers   = fs.Int("workers", 8, "worker VMs per site")
		tracePath = fs.String("trace", "", "write the run's event timeline as JSON Lines to this file")
		ckptEvery = fs.Duration("checkpoint-interval", 0, "enable resilience: checkpoint operator state at this interval (0 = off)")

		shards       = fs.Int("shards", 0, "event-core shards (0 = library default: one stage worker per core; 1 = sequential; any count gives byte-identical results)")
		worldSites   = fs.Int("world-sites", 0, "simulate a generated world with this many sites (0 = the built-in topology)")
		worldRegions = fs.Int("world-regions", 4, "regions of the generated world (used with -world-sites)")

		cpuprofile = fs.String("cpuprofile", "", "write CPU profile of the run to file")
		memprofile = fs.String("memprofile", "", "write heap profile of the run to file")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "sagesim: %v\n", err)
		return 1
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

	if path := cmp.Or(*jobsFile, *scenarioPath); path != "" {
		if err := runScenario(path, *jobsFile != "", *reportJSON, *shards, *tracePath); err != nil {
			return fail(err)
		}
		return 0
	}

	st, ok := strategies[*strategy]
	if !ok {
		return fail(fmt.Errorf("unknown strategy %q", *strategy))
	}
	rec, ob := newTrace(*tracePath)
	opt := core.Options{Seed: *seed, Obs: ob, Shards: *shards}
	if *worldSites > 0 {
		// Generated world: unless overridden, sink at the region-0 hub and
		// every other site streaming toward it.
		world := cloud.GenerateWorld(*worldSites, *worldRegions, *seed)
		opt.Topology = world
		if !explicit["sink"] {
			*sink = string(cloud.GeneratedHub(0))
		}
		if !explicit["sources"] {
			var ids []string
			for _, id := range world.SiteIDs() {
				if string(id) != *sink {
					ids = append(ids, string(id))
				}
			}
			*sources = strings.Join(ids, ",")
		}
	}
	e := core.NewEngine(core.WithOptions(opt))
	e.DeployEverywhere(cloud.Medium, *workers)
	e.Sched.RunFor(time.Minute) // monitor learning

	var specs []core.SourceSpec
	for _, s := range strings.Split(*sources, ",") {
		specs = append(specs, core.SourceSpec{
			Site: cloud.SiteID(strings.TrimSpace(s)),
			Rate: workload.ConstantRate(*rate),
		})
	}
	job := core.JobSpec{
		Sources:         specs,
		Sink:            cloud.SiteID(*sink),
		Window:          *window,
		Agg:             stream.Mean,
		ShipRaw:         *raw,
		Strategy:        st,
		Lanes:           3,
		Intr:            0.5,
		BudgetPerWindow: *budget,
	}
	if *ckptEvery > 0 {
		job.Resilience = &resilience.Config{CheckpointInterval: *ckptEvery}
	}
	rep, err := e.Run(job, time.Duration(*minutes*float64(time.Minute)))
	if err != nil {
		return fail(err)
	}

	fmt.Printf("job: %d sources -> %s, window %v, strategy %v, %s\n",
		len(specs), *sink, *window, st, map[bool]string{true: "raw events", false: "local partials"}[*raw])
	tb := stats.NewTable("run report", "metric", "value")
	tb.Add("windows completed", fmt.Sprintf("%d", rep.Windows))
	tb.Add("windows incomplete", fmt.Sprintf("%d", rep.Incomplete))
	tb.Add("events processed", fmt.Sprintf("%d", rep.TotalEvents))
	tb.Add("bytes moved over WAN", stats.FmtBytes(rep.TotalBytes))
	tb.Add("money spent", stats.FmtMoney(rep.TotalCost))
	tb.Add("latency p50", fmt.Sprintf("%.2fs", rep.LatencySummary.P50))
	tb.Add("latency p95", fmt.Sprintf("%.2fs", rep.LatencySummary.P95))
	tb.Add("latency p99", fmt.Sprintf("%.2fs", rep.LatencySummary.P99))
	if rm := rep.Resilience; rm != nil {
		tb.Add("checkpoints taken", fmt.Sprintf("%d", rm.Checkpoints))
		tb.Add("failures detected", fmt.Sprintf("%d", rm.Failures))
		tb.Add("recoveries", fmt.Sprintf("%d", rm.Recoveries))
		tb.Add("sink failovers", fmt.Sprintf("%d", rm.Failovers))
		tb.Add("duplicate bytes", stats.FmtBytes(rm.DuplicateBytes))
	}
	fmt.Println(tb.String())

	top := stats.NewTable("global answer: top 5 keys", "key", "value")
	for _, kv := range rep.Global.TopK(5) {
		top.Add(kv.Key, fmt.Sprintf("%.3f", kv.Value))
	}
	fmt.Println(top.String())

	if err := writeTrace(rec, *tracePath); err != nil {
		return fail(err)
	}
	return 0
}

// newTrace returns the -trace recorder and the observer that feeds it; both
// nil when path is empty.
func newTrace(path string) (*trace.Recorder, *obs.Observer) {
	if path == "" {
		return nil, nil
	}
	rec := trace.New(1 << 20)
	return rec, &obs.Observer{Subscribers: []obs.Subscriber{rec}}
}

// writeTrace writes the recorded events to path as JSON Lines (nothing for
// a nil recorder) and reports how many were written and how many the ring
// dropped.
func writeTrace(rec *trace.Recorder, path string) error {
	if rec == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d events written to %s (%d dropped)\n", rec.Len(), path, rec.Dropped())
	return nil
}

// runScenario executes a declarative JSON scenario file. With requireJobs
// (the -jobs-file path) the file must carry a multi-job roster. A non-empty
// reportJSON additionally writes the multi-job report as the api/v1 wire
// document — the same shape the saged daemon serves at /api/v1/report.
// shards is the -shards flag, passed through to the engine; a non-empty
// tracePath writes the run's trace there.
func runScenario(path string, requireJobs bool, reportJSON string, shards int, tracePath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		return err
	}
	if requireJobs && len(sc.Jobs) == 0 {
		return fmt.Errorf("-jobs-file %s has no jobs roster", path)
	}
	rec, ob := newTrace(tracePath)
	res, err := scenario.Run(sc, core.WithShards(shards), core.WithObservability(ob))
	if err != nil {
		return err
	}
	if err := writeTrace(rec, tracePath); err != nil {
		return err
	}
	fmt.Printf("scenario %q\n", res.Name)
	switch {
	case res.Report != nil:
		tb := stats.NewTable("run report", "metric", "value")
		tb.Add("windows completed", fmt.Sprintf("%d", res.Report.Windows))
		tb.Add("windows incomplete", fmt.Sprintf("%d", res.Report.Incomplete))
		tb.Add("events processed", fmt.Sprintf("%d", res.Report.TotalEvents))
		tb.Add("bytes moved over WAN", stats.FmtBytes(res.Report.TotalBytes))
		tb.Add("money spent", stats.FmtMoney(res.Report.TotalCost))
		tb.Add("latency p95", fmt.Sprintf("%.2fs", res.Report.LatencySummary.P95))
		if rm := res.Report.Resilience; rm != nil {
			tb.Add("checkpoints taken", fmt.Sprintf("%d", rm.Checkpoints))
			tb.Add("failures detected", fmt.Sprintf("%d", rm.Failures))
			tb.Add("recoveries", fmt.Sprintf("%d", rm.Recoveries))
			tb.Add("sink failovers", fmt.Sprintf("%d", rm.Failovers))
			tb.Add("duplicate bytes", stats.FmtBytes(rm.DuplicateBytes))
		}
		fmt.Println(tb.String())
	case res.Gather != nil:
		tb := stats.NewTable("gather report", "metric", "value")
		tb.Add("makespan", stats.FmtDur(res.Gather.Makespan))
		tb.Add("bytes", stats.FmtBytes(res.Gather.TotalBytes))
		tb.Add("cost", stats.FmtMoney(res.Gather.TotalCost))
		fmt.Println(tb.String())
	case res.Multi != nil:
		m := res.Multi
		fmt.Println(m.Table(fmt.Sprintf("multi-job report: %d jobs, policy %s, %d slots",
			len(m.Jobs), m.Policy, m.MaxConcurrent)).String())
		tb := stats.NewTable("roster summary", "metric", "value")
		tb.Add("makespan", fmt.Sprintf("%.1fs", m.Makespan.Seconds()))
		tb.Add("completion p50", fmt.Sprintf("%.1fs", m.Completion.P50))
		tb.Add("completion p95", fmt.Sprintf("%.1fs", m.Completion.P95))
		tb.Add("events processed", fmt.Sprintf("%d", m.TotalEvents))
		tb.Add("bytes moved over WAN", stats.FmtBytes(m.TotalBytes))
		tb.Add("money spent", stats.FmtMoney(m.TotalCost))
		tb.Add("egress spend", stats.FmtMoney(m.TotalEgress))
		tb.Add("VM-seconds", fmt.Sprintf("%.0f", m.TotalVMSeconds))
		tb.Add("report fingerprint", fmt.Sprintf("%016x", m.Fingerprint()))
		fmt.Println(tb.String())
		if reportJSON != "" {
			return writeReportJSON(reportJSON, m)
		}
	}
	if reportJSON != "" && res.Multi == nil {
		return fmt.Errorf("-report-json needs a multi-job roster")
	}
	return nil
}

// writeReportJSON encodes the multi-job report as the api/v1 wire document,
// to stdout for "-" or to the named file.
func writeReportJSON(path string, m *sched.MultiReport) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Wire())
}
