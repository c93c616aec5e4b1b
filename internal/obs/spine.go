package obs

import (
	"strconv"
	"sync"
	"time"
)

// EventKind names one engine fact. The vocabulary is the union of what the
// trace, the timeline, the metric families and the audit log record; each
// recorder picks the kinds it keeps.
type EventKind uint8

// The event kinds. Field use beyond At, Job, Site and Peer is noted per kind.
const (
	// EvJobStart: a job run started on the engine.
	EvJobStart EventKind = iota
	// EvWindowClose: a source site committed the window starting at ID;
	// Value is the events it kept after Map.
	EvWindowClose
	// EvPartialShipped: a source shipped one window partial.
	EvPartialShipped
	// EvEstimate: sizing consulted the monitor's estimate, Value MB/s, for
	// the window starting at ID.
	EvEstimate
	// EvModelSize: the cost/time model chose Lanes nodes for a Bytes-sized
	// transfer of the window starting at ID.
	EvModelSize
	// EvDispatch: a Bytes-sized partial left Site toward the sink Peer.
	EvDispatch
	// EvMerge: a Bytes-sized partial merged into the sink Site's window
	// state.
	EvMerge
	// EvWindowDone: the window starting at ID completed at the sink Site,
	// Dur after it closed.
	EvWindowDone
	// EvDelivered: a partial's transfer finished. Predicted was frozen at
	// dispatch for Lanes lanes; Actual, Nodes and Replans are the outcome.
	// Note is the strategy, Bytes the dispatch size.
	EvDelivered

	// EvRoute: transfer ID's first Lanes lanes were planned.
	EvRoute
	// EvTransferStart: a Bytes-sized transfer started under strategy Note.
	EvTransferStart
	// EvRetransmit: a Bytes-sized chunk was resent on attempt Value.
	EvRetransmit
	// EvReplan: transfer ID replanned onto Lanes new lanes, its Value-th
	// replan, under strategy Note.
	EvReplan
	// EvSelfHeal: a transfer rebuilt its lanes after losing them all, its
	// Value-th replan.
	EvSelfHeal
	// EvChunkAck: a Bytes-sized chunk of transfer ID was acknowledged for
	// the first time.
	EvChunkAck
	// EvDuplicateAck: an acknowledgement arrived for a chunk already
	// acknowledged.
	EvDuplicateAck
	// EvTransferDone: transfer ID delivered Bytes under strategy Note, Dur
	// after it started.
	EvTransferDone

	// EvSiteFail: the failure detector declared Site dead after Dur of
	// silence.
	EvSiteFail
	// EvSiteRecover: Site rejoined the job.
	EvSiteRecover
	// EvBacklogDrained: the sink Site finished recovery re-collection after
	// Dur of catch-up.
	EvBacklogDrained
	// EvCheckpoint: checkpoint ID persisted Bytes of job state at the sink
	// Site.
	EvCheckpoint
	// EvCheckpointLost: the latest checkpoint failed to decode with error
	// text Note.
	EvCheckpointLost
	// EvFailoverStall: a failover from the sink Site found no viable sink.
	EvFailoverStall
	// EvFailover: the meta-reducer role moved from Site to Peer.
	EvFailover

	// EvProbe: the monitor probed the link Site→Peer; Value is the link's
	// estimate after the sample, MB/s.
	EvProbe
	// EvResample: the network resampled the link Site→Peer; Value is its
	// deliverable capacity, MB/s, for the Nodes distinct senders it carries.
	EvResample
	// EvEgress: a WAN flow of job Job finished, charging Bytes of egress to
	// its source Site.
	EvEgress
	// EvRealloc: a max-min reallocation pass re-rated Value flows.
	EvRealloc
	// EvPlan: the route planner answered one call with outcome Note
	// (PlanHit, PlanRepair, PlanFull, or PlanRefresh for a graph refresh
	// that planned nothing), after committing Value dirty edges, ID of which
	// changed weight.
	EvPlan
)

// The outcomes of an EvPlan: a query answered from an untouched cached
// plan, one recomputed after a dirty edge touched its cached plan, one with
// no usable cached plan, and a graph refresh that was no query.
const (
	PlanHit     = "hit"
	PlanRepair  = "repair"
	PlanFull    = "full"
	PlanRefresh = "refresh"
)

// PlanCounts are the route-planner counters that planner calls advance, in
// the terms of route.PlannerStats.
type PlanCounts struct {
	Replans, CacheHits, Repairs, FullRecomputes, DirtyEdges, ChangedEdges uint64
}

// Add folds one EvPlan into c.
func (c *PlanCounts) Add(ev Event) {
	switch ev.Note {
	case PlanHit:
		c.CacheHits++
	case PlanRepair:
		c.Repairs++
	case PlanFull:
		c.FullRecomputes++
	}
	if ev.Note != PlanRefresh {
		c.Replans++
	}
	c.DirtyEdges += uint64(ev.Value)
	c.ChangedEdges += ev.ID
}

// Event is one engine fact on the simulated clock. It is a plain value — no
// field points at anything an emit allocates — so building and emitting one
// costs no heap allocation.
type Event struct {
	Kind EventKind
	// At is the virtual instant of the fact; Dur, for a fact that ends an
	// interval, is how long the interval ran (it began at At-Dur).
	At, Dur time.Duration
	// Job is the engine-assigned run id (first job 0).
	Job        int
	Site, Peer string
	Bytes      int64
	Value      float64
	// ID correlates related events: the window start for window-scoped
	// facts, the transfer ID for transfer-scoped ones, the sequence number
	// of a checkpoint. EvPlan carries a count in it instead.
	ID    uint64
	Note  string
	Lanes int
	// Predicted, Actual and Replans are set on EvDelivered only; Nodes on
	// EvDelivered and EvResample.
	Predicted, Actual Outcome
	Nodes, Replans    int
}

// Outcome is a transfer's throughput, duration and cost — predicted by the
// model at dispatch, or achieved.
type Outcome struct {
	MBps float64
	Time time.Duration
	Cost float64
}

// Subscriber is a recorder attached to an Observer: it sees every emitted
// event, on the emitting goroutine, and keeps the kinds it records.
type Subscriber interface {
	Observe(Event)
}

// families are the metric families the spine feeds; they are every family
// an engine fact feeds. Label handles resolve once: per (family, site, job)
// series on first use — so the exposition holds exactly the series a fact
// has touched — and per link one handle group at a time, on the group's
// first fact. The label-free network and planner series resolve at
// registration, so an observed run that never plans still exports them at 0.
type families struct {
	jobs, windows, events, partials                          CounterVec
	checkpoints, ckptBytes, failovers, siteFails, recoveries CounterVec
	winLatency                                               HistogramVec
	started, bytes, acks, retransmits, replans               CounterVec
	seconds                                                  HistogramVec
	capacity, flows, estimates                               GaugeVec
	probes, egress                                           CounterVec

	// passes / rerated count reallocation passes and the flows they
	// re-rated; their ratio is the mean component size per event.
	passes, rerated                                      Counter
	planReplans, planHits, planRepairs, planFulls, dirty Counter
	dirtyLast                                            Gauge

	mu     sync.Mutex
	series map[seriesKey]*cell
	links  map[[2]string]*linkHandles
}

// seriesKey names one series of a site-labelled family; job is -1 for the
// families without a job label.
type seriesKey struct {
	v    *vec
	site string
	job  int
}

// linkHandles are the per-link handles, in three groups that resolve
// separately, each on its own first fact: the transfer families, the
// network's link state and the monitor's probes. A group's handles are zero
// until then.
type linkHandles struct {
	started, bytes, acks, retransmits, replans Counter
	seconds                                    Histogram
	capacity, flows                            Gauge
	probes                                     Counter
	estimate                                   Gauge
}

// newFamilies registers the spine's families; a nil registry yields nil,
// which records nothing.
func newFamilies(r *Registry) *families {
	if r == nil {
		return nil
	}
	return &families{
		jobs:        r.Counter("sage_jobs_total", "jobs started on the engine"),
		windows:     r.Counter("sage_windows_completed_total", "globally completed windows", "sink", "job"),
		events:      r.Counter("sage_events_total", "source events kept after Map", "site", "job"),
		partials:    r.Counter("sage_partials_shipped_total", "window partials shipped", "site", "job"),
		winLatency:  r.Histogram("sage_window_latency_seconds", "window close to last partial arrival", DefBuckets, "sink", "job"),
		checkpoints: r.Counter("sage_checkpoints_total", "checkpoints persisted", "sink"),
		ckptBytes:   r.Counter("sage_checkpoint_bytes_total", "checkpointed state bytes", "sink"),
		failovers:   r.Counter("sage_failovers_total", "meta-reducer re-elections", "sink"),
		siteFails:   r.Counter("sage_site_failures_total", "failure-detector death declarations", "site"),
		recoveries:  r.Counter("sage_recoveries_total", "sites rejoining after failure", "site"),
		started:     r.Counter("sage_transfers_started_total", "wide-area transfers dispatched", "from", "to"),
		bytes:       r.Counter("sage_transfer_bytes_total", "payload bytes delivered", "from", "to"),
		acks:        r.Counter("sage_chunk_acks_total", "chunk acknowledgements", "from", "to"),
		retransmits: r.Counter("sage_retransmits_total", "chunks re-sent after loss or timeout", "from", "to"),
		replans:     r.Counter("sage_replans_total", "lane replans (periodic and self-heal)", "from", "to"),
		seconds:     r.Histogram("sage_transfer_seconds", "transfer wall time", DefBuckets, "from", "to"),
		capacity:    r.Gauge("sage_link_capacity_mbps", "current deliverable WAN link capacity", "from", "to"),
		flows:       r.Gauge("sage_link_flows", "distinct sender nodes with active flows on the link", "from", "to"),
		egress:      r.Counter("sage_egress_bytes_total", "WAN egress bytes charged to the site", "site"),
		probes:      r.Counter("sage_probes_total", "monitoring probes taken", "from", "to"),
		estimates:   r.Gauge("sage_link_estimate_mbps", "current link throughput estimate", "from", "to"),
		passes:      r.Counter("sage_netsim_realloc_passes_total", "max-min reallocation passes").With(),
		rerated:     r.Counter("sage_netsim_flows_rerated_total", "flows re-rated by reallocation passes (over passes: mean component size per event)").With(),
		planReplans: r.Counter("sage_planner_replans_total", "route plan queries answered").With(),
		planHits:    r.Counter("sage_planner_cache_hits_total", "plan queries answered from an untouched cached plan").With(),
		planRepairs: r.Counter("sage_planner_repairs_total", "plan queries recomputed after a dirty edge touched the cached plan").With(),
		planFulls:   r.Counter("sage_planner_full_recomputes_total", "plan queries computed with no usable cached plan").With(),
		dirty:       r.Counter("sage_planner_dirty_edges_total", "dirty-edge refreshes committed before plan queries").With(),
		dirtyLast:   r.Gauge("sage_planner_dirty_edges_last", "dirty edges committed by the most recent planner round").With(),
		series:      make(map[seriesKey]*cell),
		links:       make(map[[2]string]*linkHandles),
	}
}

// cell returns the cell of v's series for site (and job, unless job < 0),
// interning it on first use.
func (f *families) cell(v *vec, site string, job int) *cell {
	k := seriesKey{v, site, job}
	c := f.series[k]
	if c == nil {
		if job < 0 {
			c = v.cell([]string{site})
		} else {
			c = v.cell([]string{site, strconv.Itoa(job)})
		}
		f.series[k] = c
	}
	return c
}

// counter returns the counter handle of v's series for site and job.
func (f *families) counter(v CounterVec, site string, job int) Counter {
	return Counter{c: f.cell(v.v, site, job)}
}

// link returns the handles of a directed link.
func (f *families) link(from, to string) *linkHandles {
	k := [2]string{from, to}
	lh := f.links[k]
	if lh == nil {
		lh = &linkHandles{}
		f.links[k] = lh
	}
	return lh
}

// transfer returns a link's handles with the transfer group resolved.
func (f *families) transfer(from, to string) *linkHandles {
	lh := f.link(from, to)
	if lh.started.c == nil {
		lh.started = f.started.With(from, to)
		lh.bytes = f.bytes.With(from, to)
		lh.acks = f.acks.With(from, to)
		lh.retransmits = f.retransmits.With(from, to)
		lh.replans = f.replans.With(from, to)
		lh.seconds = f.seconds.With(from, to)
	}
	return lh
}

// observe updates the families an event feeds. No-op on nil.
func (f *families) observe(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch ev.Kind {
	case EvJobStart:
		f.jobs.With().Inc()
	case EvWindowClose:
		f.counter(f.events, ev.Site, ev.Job).Add(int64(ev.Value))
	case EvPartialShipped:
		f.counter(f.partials, ev.Site, ev.Job).Inc()
	case EvWindowDone:
		f.counter(f.windows, ev.Site, ev.Job).Inc()
		h := Histogram{c: f.cell(f.winLatency.v, ev.Site, ev.Job), upper: f.winLatency.v.upper}
		h.Observe(ev.Dur.Seconds())
	case EvCheckpoint:
		f.counter(f.checkpoints, ev.Site, -1).Inc()
		f.counter(f.ckptBytes, ev.Site, -1).Add(ev.Bytes)
	case EvFailover:
		f.counter(f.failovers, ev.Site, -1).Inc()
	case EvSiteFail:
		f.counter(f.siteFails, ev.Site, -1).Inc()
	case EvSiteRecover:
		f.counter(f.recoveries, ev.Site, -1).Inc()
	case EvTransferStart:
		f.transfer(ev.Site, ev.Peer).started.Inc()
	case EvRetransmit:
		f.transfer(ev.Site, ev.Peer).retransmits.Inc()
	case EvReplan, EvSelfHeal:
		f.transfer(ev.Site, ev.Peer).replans.Inc()
	case EvChunkAck, EvDuplicateAck:
		f.transfer(ev.Site, ev.Peer).acks.Inc()
	case EvTransferDone:
		lh := f.transfer(ev.Site, ev.Peer)
		lh.bytes.Add(ev.Bytes)
		lh.seconds.Observe(ev.Dur.Seconds())
	case EvProbe:
		lh := f.link(ev.Site, ev.Peer)
		if lh.probes.c == nil {
			lh.probes = f.probes.With(ev.Site, ev.Peer)
			lh.estimate = f.estimates.With(ev.Site, ev.Peer)
		}
		lh.probes.Inc()
		lh.estimate.Set(ev.Value)
	case EvResample:
		lh := f.link(ev.Site, ev.Peer)
		if lh.capacity.c == nil {
			lh.capacity = f.capacity.With(ev.Site, ev.Peer)
			lh.flows = f.flows.With(ev.Site, ev.Peer)
		}
		lh.capacity.Set(ev.Value)
		lh.flows.Set(float64(ev.Nodes))
	case EvEgress:
		f.counter(f.egress, ev.Site, -1).Add(ev.Bytes)
	case EvRealloc:
		f.passes.Inc()
		f.rerated.Add(int64(ev.Value))
	case EvPlan:
		var d PlanCounts
		d.Add(ev)
		f.planReplans.Add(int64(d.Replans))
		f.planHits.Add(int64(d.CacheHits))
		f.planRepairs.Add(int64(d.Repairs))
		f.planFulls.Add(int64(d.FullRecomputes))
		f.dirty.Add(int64(d.DirtyEdges))
		f.dirtyLast.Set(ev.Value)
	}
}
