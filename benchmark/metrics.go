package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which have none).
	bound float64
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
//
// sim_* are virtual-time outcomes of the simulated deployment (what SAGE's
// own users pay and wait), the rest are host-side costs of computing them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"sim_latency_p95_s", "sim_s", "lower", 0.10},
	{"sim_cost_usd", "usd", "lower", 0.10},
}

// layerCPU lists the layers a CPU sample can be charged to, in table order:
// the repository's packages, then the benchmark's own code (load generation
// and output checks), the garbage collector, and everything else (runtime,
// net/http, encoding/json outside any layer's frames).
var layerCPU = []string{
	"workload", "rng", "stream", "core", "simtime", "netsim", "monitor", "model",
	"route", "transfer", "resilience", "sched", "scenario", "apiv1", "daemon", "obs",
	"cloud", "stats", "trace", "loadgen", "runtime.gc", "other",
}

// cpuMetric names a layer's CPU-seconds metric.
func cpuMetric(layer string) string {
	if layer == "runtime.gc" {
		return "runtime.gc_cpu_s"
	}
	return layer + ".cpu_s"
}

// perLayer are the single-layer metrics of the traced run. <layer>.cpu_s come
// from the CPU profile and add up to profile.cpu_s; counts come from public
// accessors read after the run. A metric that does not apply to a workload
// reads 0 there.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, l := range layerCPU {
		add("s", "lower", cpuMetric(l))
	}
	add("s", "lower", "profile.cpu_s")
	add("count", "higher", "workload.events")
	add("count", "higher", "stream.global_keys")
	add("MB", "lower", "stream.partial_mb")
	add("count", "higher", "core.windows")
	add("count", "lower", "core.windows_incomplete")
	add("count", "lower", "core.partials")
	add("sim_s", "lower", "core.sim_latency_p50_s")
	add("count", "higher", "core.latency_samples")
	add("count", "lower", "simtime.fired")
	add("us", "lower", "simtime.us_per_fired")
	add("ratio", "lower", "netsim.cpu_share")
	add("MB", "lower", "netsim.egress_mb")
	add("count", "lower", "monitor.probes")
	add("count", "lower", "route.replans", "route.repairs", "route.full_recomputes", "route.dirty_edges")
	add("count", "higher", "route.cache_hits")
	add("ratio", "higher", "route.hit_ratio")
	add("count", "lower", "transfer.transfers", "transfer.chunk_acks", "transfer.retransmits", "transfer.replans")
	add("MB", "lower", "transfer.wan_mb")
	add("ratio", "higher", "transfer.useful_ratio")
	add("count", "lower", "resilience.checkpoints")
	add("MB", "lower", "resilience.checkpoint_mb")
	add("count", "lower", "resilience.failures", "resilience.failovers")
	add("count", "higher", "resilience.recoveries")
	add("MB", "lower", "resilience.dup_mb")
	add("count", "higher", "sched.admissions")
	add("count", "lower", "sched.preemptions")
	add("sim_s", "lower", "sched.sim_wait_p95_s", "sched.sim_makespan_s")
	add("B", "lower", "apiv1.roster_bytes", "apiv1.report_bytes")
	add("count", "higher", "daemon.requests")
	add("count", "lower", "daemon.req_failed")
	add("ms", "lower", "daemon.api_p50_ms", "daemon.api_p95_ms",
		"daemon.submit_ms", "daemon.report_ms",
		"daemon.jobs_list_p50_ms", "daemon.jobs_list_p95_ms", "daemon.job_get_p50_ms",
		"daemon.metrics_p50_ms", "daemon.cancel_p50_ms", "daemon.quantum_wall_ms")
	add("count", "lower", "daemon.audit_records")
	add("MB", "lower", "daemon.audit_mb")
	add("%", "lower", "daemon.audit_overhead_pct")
	add("count", "lower", "obs.series", "obs.timeline_spans")
	add("B", "lower", "obs.metrics_bytes")
	add("%", "lower", "obs.overhead_pct")
	add("MB", "lower", "runtime.alloc_mb")
	add("count", "lower", "runtime.mallocs", "runtime.gc_cycles")
	add("ms", "lower", "loadgen.think_ms")
	add("%", "lower", "trace.overhead_pct")
	add("ratio", "higher", "trace.coverage")
	return defs
}()
