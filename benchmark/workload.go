package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"sage/internal/core"
	"sage/internal/stream"
)

// A workload is one set of generated inputs the benchmark drives through
// SAGE. A run of a workload is a sequence of identical units: every unit
// sets the system up from scratch (timed as set-up), runs the same inputs
// (timed as wall time) and hands back what the output checks need. Units of
// one seed must agree on every deterministic output, which is itself one of
// the checks.
type workloadDef struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json carries the same
	// sentence.
	why string
	// prepare, when set, runs once per invocation before anything is timed.
	prepare func(c *runCtx) error
	// unit performs one set-up + run at the given size.
	unit func(c *runCtx) (*unit, error)
	// verify, when set, runs once per invocation after the measured units,
	// against the first unit's outputs: the reference computations are as expensive as a
	// unit, and running them after the measurement keeps them out of the
	// timings and out of the peak RSS.
	verify func(c *runCtx, first *unit) error
}

// runCtx is what a unit needs to know about the invocation.
type runCtx struct {
	seed uint64
	// scale shrinks virtual durations for the smoke tests (1 = the measured
	// size). Rates, key counts and topologies stay as they are so a scaled
	// unit walks the same code paths.
	scale float64
	// tr is the span recorder of a traced run, nil otherwise. A traced unit
	// also attaches an obs.Observer; withObs alone attaches the observer
	// without spans or profile (the obs-overhead control).
	tr      *tracer
	withObs bool
	// noAudit makes serve_roster's daemon run without the audit log (the
	// audit-overhead control).
	noAudit bool
	// root is the repository root, where cmd/saged is built from.
	root string
	// serveRef and sagedBin are serve_roster's reference run and the built
	// saged binary, both made once per invocation by its prepare step.
	serveRef *serveRef
	sagedBin string
}

// worldSeed fixes what is testbed rather than workload: the generated
// topologies, and raw_rough's weather. --seed derives the event streams, the
// rosters' seeded details and the clients' request sequences; it does not
// derive these, because a congested WAN amplifies a different weather
// realisation into ±20 % of wall time and simulated cost at equal offered
// load (measured), far beyond any bound a regression check could use.
const worldSeed = 1

func (c *runCtx) observed() bool { return c.tr != nil || c.withObs }

// plain returns the context of an untraced, unobserved unit of the same
// invocation: what the reference computations run under.
func (c *runCtx) plain() *runCtx {
	p := *c
	p.tr, p.withObs = nil, false
	return &p
}

// scaled shortens a virtual duration by the context's scale, keeping it a
// whole number of steps and at least one step long.
func (c *runCtx) scaled(d, step time.Duration) time.Duration {
	if c.scale >= 1 {
		return d
	}
	n := int(math.Round(float64(d) * c.scale / float64(step)))
	if n < 1 {
		n = 1
	}
	return time.Duration(n) * step
}

// unit is the outcome of one set-up + run.
type unit struct {
	setupS, wallS float64
	// events is the report's TotalEvents; opsExpected counts the windows the
	// sink should complete (one operation each) and opsFailed the incomplete
	// ones plus, on serve_roster, failed HTTP requests.
	events      int64
	opsExpected int
	opsFailed   int
	// latencies holds window-close → last-partial-at-sink for every completed
	// window of every job, in virtual seconds.
	latencies []float64
	costUSD   float64
	// fingerprint covers every deterministic output of the unit.
	fingerprint string
	// global is the merged answer (batch workloads), kept for the reference
	// comparison in verify.
	global []stream.KV
	// rssMB is the peak RSS of the process under test: units set it when that
	// is another process (serve_roster's saged), the runner fills it in
	// otherwise.
	rssMB float64
	// http holds one sample per API request (serve_roster).
	http []httpSample
	// counts are the per-layer counters read from public accessors after the
	// run; only traced units fill the ones that need the observer.
	counts map[string]float64
	// err is the first output-check failure of the unit itself.
	checkErr error
}

// check records the first failed output check of a unit.
func (u *unit) check(ok bool, format string, args ...any) {
	if !ok && u.checkErr == nil {
		u.checkErr = fmt.Errorf(format, args...)
	}
}

func (u *unit) count(name string, v float64) {
	if u.counts == nil {
		u.counts = make(map[string]float64)
	}
	u.counts[name] += v
}

// addReport folds one job report into the unit: events, windows, latencies
// and cost.
func (u *unit) addReport(rep *core.Report, expectedWindows int) {
	u.events += rep.TotalEvents
	u.opsExpected += expectedWindows
	u.opsFailed += rep.Incomplete
	if missing := expectedWindows - rep.Windows - rep.Incomplete; missing > 0 {
		u.opsFailed += missing
	}
	for _, l := range rep.Latencies {
		u.latencies = append(u.latencies, l.Seconds())
	}
	u.costUSD += rep.TotalCost
	u.count("core.windows", float64(rep.Windows))
	u.count("core.windows_incomplete", float64(rep.Incomplete))
	u.count("core.partials", float64(len(rep.SiteWindows)))
	u.count("stream.partial_mb", float64(rep.TotalBytes)/1e6)
	u.count("workload.events", float64(rep.TotalEvents))
}

// reportFingerprint hashes the deterministic fields of a single-job report
// and its answer (rep.Global.Result(), which the caller has already sorted
// out once and keeps).
func reportFingerprint(rep *core.Report, answer []stream.KV) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "w%d|inc%d|e%d|b%d|c%.9g|eg%.9g|vm%.9g|",
		rep.Windows, rep.Incomplete, rep.TotalEvents, rep.TotalBytes,
		rep.TotalCost, rep.EgressCost, rep.VMSeconds)
	for _, l := range rep.Latencies {
		fmt.Fprintf(h, "%d,", int64(l))
	}
	for _, kv := range answer {
		fmt.Fprintf(h, "%s=%.9g;", kv.Key, kv.Value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameAnswer compares two merged answers key by key. Values may differ by
// rounding when partials merge in a different order, hence the relative
// tolerance.
func sameAnswer(got, want []stream.KV) error {
	if len(got) != len(want) {
		return fmt.Errorf("answer has %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key {
			return fmt.Errorf("answer key %d is %q, want %q", i, g.Key, w.Key)
		}
		if diff := math.Abs(g.Value - w.Value); diff > 1e-9*math.Max(math.Abs(w.Value), 1e-300) {
			return fmt.Errorf("answer[%s] = %v, want %v", g.Key, g.Value, w.Value)
		}
	}
	return nil
}

// workloads is the registry, in the order the suite runs them.
var workloads = []*workloadDef{aggWide, rawRough, resilRecover, serveRoster}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
