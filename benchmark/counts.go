package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"sage/internal/core"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/sched"
)

// Per-layer counts come from the program's public accessors, read after the
// run: report fields, Engine.Sched.Fired, the planner's Stats, netsim's
// egress accounting and — on observed units — the obs registry through its
// Prometheus exposition, the same text /metrics serves. Nothing here adds
// code inside the program.

// newObserver returns the observer of an observed unit and nil otherwise;
// core.WithObservability(nil) leaves the layer off.
func newObserver(c *runCtx) *obs.Observer {
	if !c.observed() {
		return nil
	}
	return obs.NewObserver()
}

// promFamilies maps registry families to the per-layer count they feed.
var promFamilies = map[string]string{
	"sage_probes_total":            "monitor.probes",
	"sage_transfers_started_total": "transfer.transfers",
	"sage_chunk_acks_total":        "transfer.chunk_acks",
	"sage_retransmits_total":       "transfer.retransmits",
	"sage_replans_total":           "transfer.replans",
}

// promTotals sums every series of each family in a Prometheus text
// exposition and counts the series. Histogram buckets are skipped; their
// _sum and _count series stay.
func promTotals(text []byte) (sums map[string]float64, series int) {
	sums = make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		sums[name] += v
		series++
	}
	return sums, series
}

// promCounts folds a /metrics body into the unit's counts.
func promCounts(u *unit, text []byte) {
	sums, series := promTotals(text)
	for fam, name := range promFamilies {
		u.count(name, sums[fam])
	}
	u.count("transfer.wan_mb", sums["sage_transfer_bytes_total"]/1e6)
	u.count("obs.series", float64(series))
	u.count("obs.metrics_bytes", float64(len(text)))
}

// engineCounts reads the counters an in-process engine exposes.
func engineCounts(u *unit, e *core.Engine, ob *obs.Observer) {
	u.count("simtime.fired", float64(e.Sched.Fired()))
	ps := e.Mgr.Planner().Stats()
	u.count("route.replans", float64(ps.Replans))
	u.count("route.cache_hits", float64(ps.CacheHits))
	u.count("route.repairs", float64(ps.Repairs))
	u.count("route.full_recomputes", float64(ps.FullRecomputes))
	u.count("route.dirty_edges", float64(ps.DirtyEdges))
	var egress int64
	for _, id := range e.Net.Topology().SiteIDs() {
		egress += e.Net.EgressBytes(id)
	}
	u.count("netsim.egress_mb", float64(egress)/1e6)
	if ob == nil {
		return
	}
	var buf bytes.Buffer
	ob.Metrics.WritePrometheus(&buf) // a write to a bytes.Buffer cannot fail
	promCounts(u, buf.Bytes())
	u.count("obs.timeline_spans", float64(ob.Timeline.Len())+float64(ob.Timeline.Dropped()))
}

// resilienceCounts folds a job's resilience metrics into the unit.
func resilienceCounts(u *unit, m *resilience.Metrics) {
	if m == nil {
		return
	}
	u.count("resilience.checkpoints", float64(m.Checkpoints))
	u.count("resilience.checkpoint_mb", float64(m.CheckpointBytes)/1e6)
	u.count("resilience.failures", float64(m.Failures))
	u.count("resilience.recoveries", float64(m.Recoveries))
	u.count("resilience.failovers", float64(m.Failovers))
	u.count("resilience.dup_mb", float64(m.DuplicateBytes)/1e6)
}

// schedCounts folds a multi-job report's scheduling outcome into the unit.
func schedCounts(u *unit, m *sched.MultiReport) {
	var waits []float64
	for _, j := range m.Jobs {
		if j.Cancelled {
			continue
		}
		u.count("sched.admissions", 1)
		u.count("sched.preemptions", float64(j.Preemptions))
		waits = append(waits, j.Wait.Seconds())
	}
	u.count("sched.sim_wait_p95_s", percentile(waits, 0.95))
	u.count("sched.sim_makespan_s", m.Makespan.Seconds())
}
