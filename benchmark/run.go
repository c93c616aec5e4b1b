package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"
)

// minUnits is the fewest units a run measures: medians over fewer say
// little, and set-up has to be timed several times per run.
const minUnits = 3

// runResult is what one invocation reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Units     int                `json:"units"`
	Metrics   map[string]float64 `json:"metrics"`
	// Fingerprint and the sim_* metrics repeat exactly for one seed.
	Fingerprint string `json:"fingerprint"`
	// CheckErr is the first failed output check ("" when Correct).
	CheckErr string `json:"check_error,omitempty"`
	// UnitSetupS, UnitWallS and UnitRSSMB list every measured unit's set-up
	// time, wall time and peak RSS, in order.
	UnitSetupS []float64 `json:"unit_setup_s"`
	UnitWallS  []float64 `json:"unit_wall_s"`
	UnitRSSMB  []float64 `json:"unit_rss_mb"`

	spans []span
}

// measure runs units of w until their set-up and run times add up to at
// least seconds (and there are at least atLeast of them). Before each unit
// the heap is collected and handed back to the system and the peak-RSS
// watermark reset, so a unit starts like a fresh process: its peak RSS and
// its collector state are its own.
func measure(w *workloadDef, c *runCtx, seconds float64, atLeast int) ([]*unit, error) {
	var units []*unit
	spent := 0.0
	for len(units) < atLeast || spent < seconds {
		debug.FreeOSMemory()
		// If the kernel refuses the reset the readings accumulate; the run
		// reports the highest either way.
		resetPeakRSS()
		end := c.tr.begin(w.name + ".unit") // the parent of every span of the unit
		u, err := w.unit(c)
		end()
		if err != nil {
			return nil, err
		}
		if u.rssMB == 0 { // the system under test ran in this process
			if u.rssMB, err = peakRSSMB(os.Getpid()); err != nil {
				return nil, err
			}
		}
		if len(units) > 0 {
			u.global = nil // only the first unit's answer is compared; holding the rest would grow the heap unit by unit
		}
		units = append(units, u)
		spent += u.setupS + u.wallS
	}
	return units, nil
}

// checkUnits applies the checks that span units: every unit passed its own,
// and all units of the seed agree on every deterministic output.
func checkUnits(units []*unit) error {
	first := units[0]
	for i, u := range units {
		if u.checkErr != nil {
			return u.checkErr
		}
		if u.fingerprint != first.fingerprint {
			return fmt.Errorf("unit %d fingerprint %s differs from unit 0's %s for the same seed",
				i, u.fingerprint, first.fingerprint)
		}
		if u.costUSD != first.costUSD || percentile(u.latencies, 0.95) != percentile(first.latencies, 0.95) {
			return fmt.Errorf("unit %d simulated cost/latency differs from unit 0's for the same seed", i)
		}
	}
	return nil
}

// fastest returns the shortest of the units' times (wall or set-up). On a
// shared host interference only ever slows a unit down — a register-only spin
// loop on the reference VM varies from +7 % to +70 % in bursts — so the
// fastest of several identical units is the estimate closest to what the code
// costs, and the steadiest from run to run (measured against the median and
// the lower quartile; see README).
func fastest(units []*unit, time func(*unit) float64) float64 {
	best := time(units[0])
	for _, u := range units[1:] {
		best = math.Min(best, time(u))
	}
	return best
}

func wallOf(u *unit) float64  { return u.wallS }
func setupOf(u *unit) float64 { return u.setupS }

// conclude runs the checks over every unit of the invocation, then the
// workload's reference comparison against one of them, and adds up the
// operations.
func (res *runResult) conclude(w *workloadDef, c *runCtx, units []*unit, ref *unit) {
	err := checkUnits(units)
	if err == nil && w.verify != nil {
		err = w.verify(c, ref)
	}
	res.Correct = err == nil
	if err != nil {
		res.CheckErr = err.Error()
	}
	res.Units = len(units)
	res.Fingerprint = ref.fingerprint
	for _, u := range units {
		res.Attempted += u.opsExpected
		res.Failed += u.opsFailed
	}
}

func pick(units []*unit, f func(*unit) float64) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = f(u)
	}
	return out
}

// runEndToEnd is an untraced invocation: the end-to-end metrics.
func runEndToEnd(w *workloadDef, c *runCtx, seconds float64) (*runResult, error) {
	if w.prepare != nil {
		if err := w.prepare(c); err != nil {
			return nil, err
		}
	}
	units, err := measure(w, c, seconds, minUnits)
	if err != nil {
		return nil, err
	}
	// The highest of the units' peaks. It is steadier than their median: the
	// collector's pacing caps how far a peak can go, and most runs have a unit
	// that reaches the cap, while how many do varies (saged: 146–198 MB per
	// unit, 193–198 MB per run).
	rss := 0.0
	for _, u := range units {
		rss = math.Max(rss, u.rssMB)
	}
	res := &runResult{Workload: w.name, Seed: c.seed,
		UnitSetupS: pick(units, setupOf),
		UnitWallS:  pick(units, wallOf),
		UnitRSSMB:  pick(units, func(u *unit) float64 { return u.rssMB })}
	res.conclude(w, c, units, units[0])
	res.Metrics = map[string]float64{
		"setup_s":           fastest(units, setupOf),
		"wall_s":            fastest(units, wallOf),
		"events_per_s":      float64(units[0].events) / fastest(units, wallOf),
		"peak_rss_mb":       rss,
		"sim_latency_p95_s": percentile(units[0].latencies, 0.95),
		"sim_cost_usd":      units[0].costUSD,
	}
	return res, nil
}

// runTraced is a traced invocation: the per-layer metrics. It never feeds an
// end-to-end number. It measures three variants of the workload — plain
// (what the end-to-end runs do), a control (the obs.Observer attached and
// nothing else; on serve_roster the binary without its audit log) and traced
// (observer, spans and a CPU profile) — so the tracing, observability and
// audit overheads are differences between runs of one invocation.
func runTraced(w *workloadDef, c *runCtx, seconds float64) (*runResult, error) {
	if w.prepare != nil {
		if err := w.prepare(c); err != nil {
			return nil, err
		}
	}
	serve := w == serveRoster
	share := seconds / 4
	plain, err := measure(w, c, share, 2)
	if err != nil {
		return nil, err
	}
	// The control variant: with the observer on the batch workloads; without
	// the audit log on serve_roster, whose daemon always has its observer.
	cc := *c
	cc.withObs, cc.noAudit = !serve, serve
	control, err := measure(w, &cc, share, 2)
	if err != nil {
		return nil, err
	}

	tc := *c
	tc.tr = newTracer(fmt.Sprintf("%s-seed%d", w.name, c.seed))
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	profStart := time.Now()
	traced, err := measure(w, &tc, seconds/2, 2)
	profWall := time.Since(profStart).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	samples, err := readProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	cpu, total := layerSeconds(samples)

	all := slices.Concat(plain, control, traced)
	res := &runResult{Workload: w.name, Seed: c.seed, Traced: true, spans: tc.tr.spans}
	res.conclude(w, c, all, traced[0])

	// Every per-layer number is per traced unit, so it compares with wall_s.
	n := float64(len(traced))
	m := make(map[string]float64)
	for _, d := range perLayer {
		m[d.name] = 0 // a metric that does not apply to the workload reads 0
	}
	for _, l := range layerCPU {
		m[cpuMetric(l)] = cpu[l] / n
	}
	m["profile.cpu_s"] = total / n
	for name := range traced[0].counts {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("count %q is not a registered per-layer metric", name)
		}
		m[name] = median(pick(traced, func(u *unit) float64 { return u.counts[name] }))
	}
	tracedWall := fastest(traced, wallOf)
	m["core.sim_latency_p50_s"] = median(traced[0].latencies)
	m["core.latency_samples"] = float64(len(traced[0].latencies))
	if f := m["simtime.fired"]; f > 0 {
		m["simtime.us_per_fired"] = tracedWall / f * 1e6
	}
	if total > 0 {
		m["netsim.cpu_share"] = cpu["netsim"] / total
	}
	if r := m["route.replans"]; r > 0 {
		m["route.hit_ratio"] = m["route.cache_hits"] / r
	}
	if a := m["transfer.chunk_acks"]; a > 0 {
		m["transfer.useful_ratio"] = a / (a + m["transfer.retransmits"])
	}
	m["trace.overhead_pct"] = (tracedWall/fastest(plain, wallOf) - 1) * 100
	m["trace.coverage"] = total / profWall
	if serve {
		m["daemon.audit_overhead_pct"] = (fastest(plain, wallOf)/fastest(control, wallOf) - 1) * 100
	} else {
		m["obs.overhead_pct"] = (fastest(control, wallOf)/fastest(plain, wallOf) - 1) * 100
	}
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / n
	m["runtime.mallocs"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	m["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
	if serve {
		// API latency comes from the real binary (the plain units), the CPU
		// shares from the in-process daemon the profile can see.
		httpMetrics(m, plain)
	}
	res.Metrics = m
	return res, nil
}

// httpMetrics fills the daemon.* latency metrics from the units' samples,
// all units pooled.
func httpMetrics(m map[string]float64, units []*unit) {
	byRoute := make(map[string][]float64)
	var all []float64
	failed := 0
	for _, u := range units {
		for _, s := range u.http {
			ms := s.dur.Seconds() * 1e3
			byRoute[s.route] = append(byRoute[s.route], ms)
			if s.route != "POST /api/v1/jobs" && s.route != "POST /api/v1/clock" {
				all = append(all, ms) // the client loop's requests, every route pooled
			}
			if s.failed {
				failed++
			}
		}
	}
	n := float64(len(units))
	m["daemon.requests"] = float64(len(all)) / n
	m["daemon.req_failed"] = float64(failed) / n
	m["daemon.api_p50_ms"] = median(all)
	m["daemon.api_p95_ms"] = percentile(all, 0.95)
	m["daemon.jobs_list_p50_ms"] = median(byRoute["GET /api/v1/jobs"])
	m["daemon.jobs_list_p95_ms"] = percentile(byRoute["GET /api/v1/jobs"], 0.95)
	m["daemon.job_get_p50_ms"] = median(byRoute["GET /api/v1/jobs/{id}"])
	m["daemon.metrics_p50_ms"] = median(byRoute["GET /metrics"])
	m["daemon.cancel_p50_ms"] = median(byRoute["DELETE /api/v1/jobs/{id}"])
	for _, name := range []string{"daemon.submit_ms", "daemon.report_ms", "daemon.quantum_wall_ms",
		"daemon.audit_records", "daemon.audit_mb", "loadgen.think_ms"} {
		m[name] = median(pick(units, func(u *unit) float64 { return u.counts[name] }))
	}
}

// findRoot walks up from the working directory to the repository root: the
// directory whose go.mod declares module sage.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module sage\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the sage repository: no go.mod declaring module sage above the working directory")
		}
		dir = parent
	}
}
