// Command benchmark is SAGE's end-to-end benchmark: four workloads, six
// end-to-end metrics every workload reports, and a traced run that breaks
// the CPU time down by layer. See README.md.
//
// One invocation measures one workload:
//
//	go run . -workload agg_wide -seed 1 -seconds 20 -trace 0
//
// and prints every metric by name with its unit, then one JSON object on the
// last line of standard output. Without -workload it runs the whole suite,
// each repetition in a fresh child process (see suite.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run once: "+strings.Join(workloadNames(), ", ")+" (empty: the whole suite)")
		seed         = flag.Uint64("seed", 1, "derives the workload: every event stream, the rosters' seeded details, the clients' request sequences")
		seconds      = flag.Float64("seconds", 20, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans and per-layer table to this file")
		reps         = flag.Int("reps", 5, "suite: untraced repetitions per workload")
		out          = flag.String("out", "", "write the results (one run's, or the whole suite's) to this JSON file")
		compare      = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
		selfcheck    = flag.Bool("selfcheck", false, "run the suite twice and fail unless every metric is unchanged")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *reps)
	case *workloadName == "":
		_, err = runSuite(*seed, *seconds, *reps, *out)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *traceOut, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runOne is one invocation on one workload: the unit the pipeline and the
// suite both build on.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut, out string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	c := &runCtx{seed: seed, scale: 1, root: root}
	var res *runResult
	defs := endToEnd
	if traced {
		res, err = runTraced(w, c, seconds)
		defs = perLayer
	} else {
		res, err = runEndToEnd(w, c, seconds)
	}
	if err != nil {
		return err
	}
	if traceOut != "" && traced {
		if err := writeTrace(traceOut, traceDoc{Workload: name, Seed: seed, Spans: res.spans, Layers: res.Metrics}); err != nil {
			return err
		}
	}
	if out != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	printRun(res, defs)
	if !res.Correct {
		return fmt.Errorf("%s: output check failed: %s", name, res.CheckErr)
	}
	return nil
}

// printRun prints every metric by name with its unit, the CPU share table of
// a traced run, and the result object as the last line.
func printRun(res *runResult, defs []metricDef) {
	fmt.Printf("workload %s  seed %d  units %d  ops %d  ops_failed %d  fingerprint %s\n",
		res.Workload, res.Seed, res.Units, res.Attempted, res.Failed, res.Fingerprint)
	if len(res.UnitWallS) > 0 {
		fmt.Printf("  unit set-up times (s): %.3g\n", res.UnitSetupS)
		fmt.Printf("  unit wall times (s): %.4g\n", res.UnitWallS)
		fmt.Printf("  unit peak RSS (MB):  %.4g\n", res.UnitRSSMB)
	}
	for _, d := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	if res.Traced {
		printShares(res.Metrics)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// printShares prints each layer's share of the profiled CPU, largest first.
func printShares(m map[string]float64) {
	total := m["profile.cpu_s"]
	if total <= 0 {
		return
	}
	type row struct {
		name string
		s    float64
	}
	var rows []row
	sum := 0.0
	for _, l := range layerCPU {
		rows = append(rows, row{cpuMetric(l), m[cpuMetric(l)]})
		sum += m[cpuMetric(l)]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	fmt.Println("  CPU by layer (share of the profile):")
	for _, r := range rows {
		if r.s > 0 {
			fmt.Printf("    %-22s %8.3f s  %5.1f %%\n", r.name, r.s, 100*r.s/total)
		}
	}
	fmt.Printf("    %-22s %8.3f s  (profile total %.3f s)\n", "sum of layers", sum, total)
}
