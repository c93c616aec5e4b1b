package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteDoc is what a suite run writes with -out and -compare reads: every
// repetition's result plus where it was measured.
type suiteDoc struct {
	Host struct {
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Commit     string `json:"commit,omitempty"`
	} `json:"host"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Reps    int         `json:"reps"`
	Runs    []runResult `json:"runs"`
}

// values collects one end-to-end metric of one workload over the untraced
// repetitions.
func (d *suiteDoc) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range d.Runs {
		if r.Workload == workload && !r.Traced {
			vs = append(vs, r.Metrics[metric])
		}
	}
	return vs
}

// runChild runs one repetition in a fresh process of this same binary, so
// peak RSS and collector state are the repetition's own. The parent only
// waits while the child runs.
func runChild(dir, workload string, seed uint64, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	outPath := filepath.Join(dir, fmt.Sprintf("rep-%d.json", os.Getpid()))
	defer os.Remove(outPath)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", outPath)
	cmd.Stderr = os.Stderr
	if b, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s repetition failed: %w\n%s", workload, err, b)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s repetition wrote an unreadable result: %w", workload, err)
	}
	return &res, nil
}

// runSuite runs every workload: reps untraced repetitions and one traced.
func runSuite(seed uint64, seconds float64, reps int, out string) (*suiteDoc, error) {
	if reps < 1 {
		return nil, errors.New("-reps must be at least 1")
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	doc := &suiteDoc{Seed: seed, Seconds: seconds, Reps: reps}
	doc.Host.Cores = runtime.NumCPU()
	doc.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Host.GoVersion = runtime.Version()
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		doc.Host.Commit = strings.TrimSpace(string(b)) // absent outside a git checkout
	}
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, commit %q; seed %d, %g s per run, %d repetitions\n",
		doc.Host.Cores, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.Commit, seed, seconds, reps)
	for _, w := range workloads {
		var first *runResult
		for rep := 0; rep <= reps; rep++ {
			traced := rep == reps
			res, err := runChild(dir, w.name, seed, seconds, traced)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = res
			}
			if res.Fingerprint != first.Fingerprint {
				return nil, fmt.Errorf("%s: repetition %d fingerprint %s differs from repetition 0's %s for seed %d",
					w.name, rep, res.Fingerprint, first.Fingerprint, seed)
			}
			doc.Runs = append(doc.Runs, *res)
			if traced {
				printSuiteWorkload(doc, w, res)
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// printSuiteWorkload prints one workload's end-to-end medians with
// quartiles and sample count, then the traced repetition's per-layer table.
func printSuiteWorkload(doc *suiteDoc, w *workloadDef, traced *runResult) {
	ops, failed := 0, 0
	for _, r := range doc.Runs {
		if r.Workload == w.name {
			ops += r.Attempted
			failed += r.Failed
		}
	}
	fmt.Printf("\n%s  ops %d  ops_failed %d  fingerprint %s\n", w.name, ops, failed, traced.Fingerprint)
	fmt.Printf("  %-20s %-6s %14s %14s %14s %3s\n", "end-to-end", "unit", "median", "q1", "q3", "n")
	for _, d := range endToEnd {
		vs := doc.values(w.name, d.name)
		q1, q2, q3 := quartiles(vs)
		fmt.Printf("  %-20s %-6s %14.6g %14.6g %14.6g %3d\n", d.name, d.unit, q2, q1, q3, len(vs))
	}
	fmt.Println("  per layer (traced repetition):")
	for _, d := range perLayer {
		if v := traced.Metrics[d.name]; v != 0 {
			fmt.Printf("    %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	printShares(traced.Metrics)
}

// verdict classifies the change of one metric of one workload from a base
// set of runs to another. Worsening is a share of the base's median.
func verdict(d metricDef, base, other []float64) (ratio float64, v string) {
	bq1, bm, bq3 := quartiles(base)
	oq1, om, oq3 := quartiles(other)
	if bm == 0 {
		return 0, "unresolved"
	}
	ratio = om / bm
	spread := (bq3 - bq1) / bm
	if om != 0 {
		if s := (oq3 - oq1) / om; s > spread {
			spread = s
		}
	}
	worse := ratio - 1
	if d.better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spread > d.bound:
		return ratio, "unresolved" // the runs disagree among themselves by more than the bound
	case worse > d.bound:
		return ratio, "regressed"
	case -worse > d.bound:
		return ratio, "improved"
	}
	return ratio, "unchanged" // within the bound either way: below what this benchmark resolves
}

// compareDocs prints one row per workload × end-to-end metric and returns
// the verdicts in row order.
func compareDocs(a, b *suiteDoc) []string {
	var verdicts []string
	fmt.Printf("%-14s %-18s %12s %12s %12s | %12s %12s %12s | %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "B/A", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(w.name, d.name), b.values(w.name, d.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			ratio, v := verdict(d, av, bv)
			verdicts = append(verdicts, v)
			fmt.Printf("%-14s %-18s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %8.4f %5.0f%%  %s\n",
				w.name, d.name, am, aq1, aq3, bm, bq1, bq3, ratio, d.bound*100, v)
		}
	}
	return verdicts
}

func readSuite(path string) (*suiteDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d suiteDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles implements -compare A.json B.json; A is the base.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs two result files: -compare A.json B.json")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: A ran seed %d for %g s, B seed %d for %g s\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	for _, v := range compareDocs(a, b) {
		if v == "regressed" {
			return errors.New("at least one metric regressed")
		}
	}
	return nil
}

// selfCheck runs the suite twice on the same build and seed: every row must
// come out unchanged, and the simulated outcomes must repeat bit for bit.
func selfCheck(seed uint64, seconds float64, reps int) error {
	a, err := runSuite(seed, seconds, reps, "")
	if err != nil {
		return err
	}
	b, err := runSuite(seed, seconds, reps, "")
	if err != nil {
		return err
	}
	fmt.Println()
	bad := 0
	for _, v := range compareDocs(a, b) {
		if v != "unchanged" {
			bad++
		}
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Traced {
			continue
		}
		for _, m := range []string{"sim_latency_p95_s", "sim_cost_usd"} {
			if ra.Metrics[m] != rb.Metrics[m] {
				return fmt.Errorf("%s: %s is %v in one set and %v in the other for the same seed",
					ra.Workload, m, ra.Metrics[m], rb.Metrics[m])
			}
		}
		if ra.Fingerprint != rb.Fingerprint {
			return fmt.Errorf("%s: fingerprints %s and %s for the same seed", ra.Workload, ra.Fingerprint, rb.Fingerprint)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not unchanged between two sets of the same build", bad)
	}
	return nil
}
