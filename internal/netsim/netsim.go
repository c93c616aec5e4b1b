// Package netsim simulates the dynamic behaviour of a geo-distributed cloud
// network in virtual time. It is the substrate every SAGE experiment runs on:
// nodes (VMs) in sites exchange flows across wide-area links whose capacity
// varies under multi-tenancy, and the simulator computes each flow's
// throughput by max-min fair sharing of every resource it crosses.
//
// # Model
//
// A flow from node A (site X) to node B (site Y) consumes three resources:
// A's uplink NIC, the directed wide-area link X->Y (when X != Y), and B's
// downlink NIC. Rates are assigned by progressive filling (max-min
// fairness), the standard fluid approximation of long-lived TCP sharing.
//
// Wide-area capacity is time-varying: each link runs an Ornstein–Uhlenbeck
// process resampled every UpdateInterval, plus a Poisson "glitch" process
// that multiplies capacity by a random depth for a random duration —
// reproducing the published observation that cloud WAN performance has high
// variance, no trend, and drops or bursts at any moment.
//
// Aggregate parallelism: a wide-area link's capacity grows sublinearly with
// the number of distinct sender nodes using it (cloud providers route
// distinct VM pairs over distinct switch paths), as capacity(k) =
// base * min(AggMax, k^AggAlpha). This is what makes adding nodes to a
// transfer worthwhile, with diminishing returns.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sage/internal/cloud"
	"sage/internal/obs"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// Options configures the simulator. Zero fields take defaults.
type Options struct {
	// UpdateInterval is how often link capacity is resampled (default 5s).
	UpdateInterval time.Duration
	// AggAlpha is the exponent of the sublinear aggregate-parallelism law
	// (default 0.65).
	AggAlpha float64
	// AggMax caps the aggregate factor (default 4.0).
	AggMax float64
	// OUTheta is the mean-reversion rate of link capacity per second
	// (default 1/120).
	OUTheta float64
	// GlitchMeanGap is the mean time between capacity glitches per link
	// (default 8 min). Negative disables glitches.
	GlitchMeanGap time.Duration
	// GlitchMeanDur is the mean glitch duration (default 45s).
	GlitchMeanDur time.Duration
	// GlitchDepthMin/Max bound the capacity multiplier during a glitch
	// (defaults 0.2 and 0.6).
	GlitchDepthMin, GlitchDepthMax float64
	// ProbeNoise is the relative stddev of monitoring probe error
	// (default 0.08).
	ProbeNoise float64
	// ProbeOutlierProb is the probability that a probe returns a wild
	// transient (slow-start artifacts, co-tenant bursts) unrelated to
	// deliverable capacity: the sample is multiplied by ProbeOutlierLow or
	// ProbeOutlierHigh with equal probability. Default 0 (disabled).
	ProbeOutlierProb float64
	// ProbeOutlierLow/High are the outlier multipliers (defaults 0.25, 2.5).
	ProbeOutlierLow, ProbeOutlierHigh float64
	// CapacityFloor/Ceil clamp the OU factor (defaults 0.15 and 1.8).
	CapacityFloor, CapacityCeil float64
	// CrossTrafficMeanGap, when positive, generates background flows on
	// every WAN link with exponentially distributed inter-arrival times:
	// other tenants' traffic competing for the same links. Background flows
	// consume capacity in the max-min allocation but do not add aggregate
	// parallelism.
	CrossTrafficMeanGap time.Duration
	// CrossTrafficMeanBytes is the mean background flow size, drawn
	// log-normally (default 64 MB).
	CrossTrafficMeanBytes int64
	// Obs, when non-nil, exports per-link capacity/flow gauges and per-site
	// egress counters through the observability layer. Nil (the default)
	// keeps the simulator's behavior and allocation profile untouched.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.UpdateInterval <= 0 {
		o.UpdateInterval = 5 * time.Second
	}
	if o.AggAlpha == 0 {
		o.AggAlpha = 0.65
	}
	if o.AggMax == 0 {
		o.AggMax = 4.0
	}
	if o.OUTheta == 0 {
		o.OUTheta = 1.0 / 120
	}
	if o.GlitchMeanGap == 0 {
		o.GlitchMeanGap = 8 * time.Minute
	}
	if o.GlitchMeanDur == 0 {
		o.GlitchMeanDur = 45 * time.Second
	}
	if o.GlitchDepthMin == 0 {
		o.GlitchDepthMin = 0.2
	}
	if o.GlitchDepthMax == 0 {
		o.GlitchDepthMax = 0.6
	}
	if o.ProbeNoise == 0 {
		o.ProbeNoise = 0.08
	}
	if o.ProbeOutlierLow == 0 {
		o.ProbeOutlierLow = 0.25
	}
	if o.ProbeOutlierHigh == 0 {
		o.ProbeOutlierHigh = 2.5
	}
	if o.CapacityFloor == 0 {
		o.CapacityFloor = 0.15
	}
	if o.CapacityCeil == 0 {
		o.CapacityCeil = 1.8
	}
	if o.CrossTrafficMeanBytes <= 0 {
		o.CrossTrafficMeanBytes = 64 << 20
	}
	return o
}

// Node is a simulated VM.
type Node struct {
	ID       string
	Site     cloud.SiteID
	Class    cloud.VMClass
	failed   bool
	nicScale float64

	up   *resource
	down *resource
}

// Failed reports whether the node is currently marked failed.
func (n *Node) Failed() bool { return n.failed }

// NICScale returns the node's current NIC degradation factor (1 = nominal).
func (n *Node) NICScale() float64 { return n.nicScale }

// ErrAborted is reported by flows cancelled explicitly or killed by a node
// failure.
var ErrAborted = errors.New("netsim: flow aborted")

// Flow is an in-progress point-to-point transfer.
type Flow struct {
	ID       uint64
	Src, Dst *Node

	size       int64
	done       float64 // bytes transferred
	rate       float64 // current MB/s
	lastUpdate simtime.Time
	started    simtime.Time
	ended      simtime.Time
	active     bool // counted in allocation
	finished   bool
	err        error
	capMBps    float64
	background bool
	job        int
	onDone     func(*Flow)
	resources  []*resource
	activation *simtime.Event
	network    *Network
	link       *wanLink

	// resBuf backs resources (at most up, down, WAN link, rate cap) so
	// starting a flow does not allocate a resource slice.
	resBuf [4]*resource
	// capRes is the per-flow rate-cap resource, embedded to avoid a
	// separate allocation for capped flows.
	capRes resource
	// fixedEpoch marks the flow as rate-fixed during the reallocation pass
	// with the matching Network.allocEpoch.
	fixedEpoch uint64
	// projEnd is the projected completion time under the current rate,
	// maintained by reallocate for the wake-up heap.
	projEnd simtime.Time

	// activateFn / doneFn are the activation and deferred-completion
	// callbacks, bound to the Flow once so pooled reuse schedules no new
	// closures; doneEv is the reusable deferred-completion event. released
	// marks a flow currently sitting in the network's free list.
	activateFn func()
	doneFn     func()
	doneEv     *simtime.Event
	released   bool
}

// Size returns the flow size in bytes.
func (f *Flow) Size() int64 { return f.size }

// BytesDone returns the bytes transferred so far (advanced lazily; exact at
// event boundaries).
func (f *Flow) BytesDone() int64 { return int64(f.done) }

// Rate returns the currently allocated rate in MB/s.
func (f *Flow) Rate() float64 { return f.rate }

// Err returns nil for a successfully completed flow, ErrAborted otherwise.
func (f *Flow) Err() error { return f.err }

// Finished reports whether the flow has completed or aborted.
func (f *Flow) Finished() bool { return f.finished }

// Started returns the virtual time the flow was created.
func (f *Flow) Started() simtime.Time { return f.started }

// Ended returns the virtual time the flow finished (valid once Finished).
func (f *Flow) Ended() simtime.Time { return f.ended }

// Duration returns Ended - Started for a finished flow, and 0 for a flow
// that is still in progress (whose end time is not yet meaningful).
func (f *Flow) Duration() time.Duration {
	if !f.finished {
		return 0
	}
	return f.ended - f.started
}

// resource is anything with a capacity shared max-min among flows: a NIC
// direction, a WAN link, or a per-flow rate cap.
type resource struct {
	name string
	// capFn returns current capacity given the number of flows crossing
	// the resource. nil means the capacity is the constant fixedCap.
	capFn    func(k int) float64
	fixedCap float64

	// flows is the ID-ordered list of active flows crossing the resource,
	// maintained incrementally on flow activation and finish so the
	// allocator never rebuilds per-resource membership.
	flows []*Flow

	// seenEpoch marks the resource as visited by the reallocation pass with
	// the matching Network.allocEpoch.
	seenEpoch uint64

	// scratch fields used during allocation
	nflows    int
	remaining float64
}

func (r *resource) capacity(k int) float64 {
	if r.capFn != nil {
		return r.capFn(k)
	}
	return r.fixedCap
}

// wanLink is the dynamic state of a directed inter-site link.
type wanLink struct {
	spec    *cloud.LinkSpec
	ou      *rng.OU
	factor  float64 // OU sample, clamped
	glitch  float64 // 1 outside glitches
	scale   float64 // experiment injection multiplier
	res     *resource
	senders map[*Node]int // distinct sender nodes with active flows

	// capGauge / flowGauge export the link's state each resample; no-op
	// handles when observability is off.
	capGauge  obs.Gauge
	flowGauge obs.Gauge
}

func (l *wanLink) capacityFor(k int, opt Options) float64 {
	if k < 1 {
		k = 1
	}
	agg := math.Min(opt.AggMax, math.Pow(float64(k), opt.AggAlpha))
	return l.spec.BaseMBps * l.factor * l.glitch * l.scale * agg
}

// Network is the simulator. Create with New; drive by running the scheduler.
type Network struct {
	sched *simtime.Scheduler
	topo  *cloud.Topology
	opt   Options
	rand  *rng.Rand

	nodes  []*Node
	links  map[[2]cloud.SiteID]*wanLink
	nextID uint64
	wake   *simtime.Event
	onWake func()
	egress map[cloud.SiteID]int64
	// jobEgress accumulates WAN egress bytes per job ID (dense; grown on
	// demand). Cross-job flow attribution: every non-background WAN flow
	// adds its delivered bytes to its job's cell, so a multi-job run can
	// bill each tenant exactly, and the per-job sum equals the per-site sum.
	jobEgress []int64
	nodeSeq   map[cloud.SiteID]int

	// met / egressCtr are the observability families and the per-site
	// egress handle cache (zero/nil when the layer is off).
	met       netMetrics
	egressCtr map[cloud.SiteID]obs.Counter

	// live is the ID-ordered list of unfinished flows (including flows
	// still in their activation delay). IDs are assigned in increasing
	// order, so StartFlow appends and finishFlow removes in place: no
	// map-dump-and-sort per event.
	live []*Flow

	// allocEpoch identifies the current reallocation pass; resources and
	// flows are stamped with it instead of tracking membership in
	// per-call maps.
	allocEpoch uint64

	// Reusable scratch buffers for the allocator and advance, so steady
	// state reallocation performs no heap allocation.
	activeScratch    []*Flow
	resOrderScratch  []*resource
	completedScratch []*Flow
	etaHeap          []*Flow

	// flowFree is the pool of finished flows handed back via ReleaseFlow,
	// reused by StartFlow so steady-state traffic creates no Flow objects.
	flowFree []*Flow
}

// New builds a Network over the topology. Link variability starts
// immediately; the caller drives time through the scheduler.
func New(sched *simtime.Scheduler, topo *cloud.Topology, r *rng.Rand, opt Options) *Network {
	opt = opt.withDefaults()
	n := &Network{
		sched:   sched,
		topo:    topo,
		opt:     opt,
		rand:    r.Split("netsim"),
		links:   make(map[[2]cloud.SiteID]*wanLink),
		egress:  make(map[cloud.SiteID]int64),
		nodeSeq: make(map[cloud.SiteID]int),

		met:       newNetMetrics(opt.Obs.Registry()),
		egressCtr: make(map[cloud.SiteID]obs.Counter),
	}
	n.onWake = func() { n.reschedule() }
	for _, spec := range topo.Links() {
		key := [2]cloud.SiteID{spec.From, spec.To}
		lr := r.Split("link/" + string(spec.From) + ">" + string(spec.To))
		l := &wanLink{
			spec:    spec,
			ou:      rng.NewOU(lr, 1.0, opt.OUTheta, spec.Jitter*math.Sqrt(2*opt.OUTheta)),
			factor:  1,
			glitch:  1,
			scale:   1,
			senders: make(map[*Node]int),

			capGauge:  n.met.capacity.With(string(spec.From), string(spec.To)),
			flowGauge: n.met.flows.With(string(spec.From), string(spec.To)),
		}
		l.res = &resource{
			name:  fmt.Sprintf("wan:%s>%s", spec.From, spec.To),
			capFn: func(k int) float64 { return l.capacityFor(len(l.senders), n.opt) },
		}
		n.links[key] = l
		n.scheduleGlitch(l, lr)
	}
	sched.NewTicker(opt.UpdateInterval, func(now simtime.Time) { n.resample() })
	if opt.CrossTrafficMeanGap > 0 {
		n.startCrossTraffic(r)
	}
	return n
}

// startCrossTraffic provisions hidden per-site tenant nodes and schedules
// Poisson background flows on every WAN link.
func (n *Network) startCrossTraffic(r *rng.Rand) {
	hidden := make(map[cloud.SiteID]*Node)
	for _, s := range n.topo.Sites() {
		node := n.NewNode(s.ID, cloud.VMClass{
			Name: "tenant", CPUs: 8, MemGB: 14, NICMBps: 1e6, PricePerHour: 1, CPUScore: 8,
		})
		hidden[s.ID] = node
	}
	for _, spec := range n.topo.Links() {
		spec := spec
		lr := r.Split("xtraffic/" + string(spec.From) + ">" + string(spec.To))
		active := 0
		var schedule func()
		schedule = func() {
			gap := time.Duration(lr.Exp(n.opt.CrossTrafficMeanGap.Seconds()) * float64(time.Second))
			n.sched.After(gap, func() {
				// Bound concurrent tenant flows per link: real tenants back
				// off under congestion, and the bound keeps the fluid
				// solver's flow count stable even at saturating arrival
				// rates.
				if active < 8 {
					mean := float64(n.opt.CrossTrafficMeanBytes)
					size := int64(lr.LogNormal(math.Log(mean)-0.5, 1.0))
					if size < 1<<20 {
						size = 1 << 20
					}
					active++
					n.StartFlow(hidden[spec.From], hidden[spec.To], size,
						FlowOpts{Background: true}, func(*Flow) { active-- })
				}
				schedule()
			})
		}
		schedule()
	}
}

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *simtime.Scheduler { return n.sched }

// Topology returns the static topology.
func (n *Network) Topology() *cloud.Topology { return n.topo }

func (n *Network) resample() {
	dt := n.opt.UpdateInterval.Seconds()
	for _, l := range n.links {
		v := l.ou.Step(dt)
		l.factor = math.Min(n.opt.CapacityCeil, math.Max(n.opt.CapacityFloor, v))
		if l.capGauge.Enabled() {
			l.capGauge.Set(l.capacityFor(len(l.senders), n.opt))
			l.flowGauge.Set(float64(len(l.senders)))
		}
	}
	n.reschedule()
}

func (n *Network) scheduleGlitch(l *wanLink, lr *rng.Rand) {
	if n.opt.GlitchMeanGap < 0 {
		return
	}
	gap := time.Duration(lr.Exp(n.opt.GlitchMeanGap.Seconds()) * float64(time.Second))
	n.sched.After(gap, func() {
		depth := n.opt.GlitchDepthMin + lr.Float64()*(n.opt.GlitchDepthMax-n.opt.GlitchDepthMin)
		dur := time.Duration(lr.Exp(n.opt.GlitchMeanDur.Seconds()) * float64(time.Second))
		l.glitch = depth
		n.reschedule()
		n.sched.After(dur, func() {
			l.glitch = 1
			n.reschedule()
			n.scheduleGlitch(l, lr)
		})
	})
}

// NewNode provisions a VM in the given site.
func (n *Network) NewNode(site cloud.SiteID, class cloud.VMClass) *Node {
	if n.topo.Site(site) == nil {
		panic(fmt.Sprintf("netsim: unknown site %q", site))
	}
	seq := n.nodeSeq[site]
	n.nodeSeq[site] = seq + 1
	node := &Node{
		ID:       fmt.Sprintf("%s-%s-%d", site, class.Name, seq),
		Site:     site,
		Class:    class,
		nicScale: 1,
	}
	node.up = &resource{name: node.ID + "/up", capFn: func(int) float64 {
		if node.failed {
			return 0
		}
		return node.Class.NICMBps * node.nicScale
	}}
	node.down = &resource{name: node.ID + "/down", capFn: func(int) float64 {
		if node.failed {
			return 0
		}
		return node.Class.NICMBps * node.nicScale
	}}
	n.nodes = append(n.nodes, node)
	return node
}

// NewNodes provisions count identical VMs.
func (n *Network) NewNodes(site cloud.SiteID, class cloud.VMClass, count int) []*Node {
	out := make([]*Node, count)
	for i := range out {
		out[i] = n.NewNode(site, class)
	}
	return out
}

// FlowOpts tunes a single flow.
type FlowOpts struct {
	// CapMBps caps the flow's rate; 0 means no cap. Used to model
	// intrusiveness limits (a transfer may only use a fraction of a VM's
	// NIC).
	CapMBps float64
	// NoActivationDelay skips the connection-setup latency (used by probes).
	NoActivationDelay bool
	// Background marks other-tenant traffic: it consumes link capacity but
	// does not count toward the aggregate-parallelism law or egress
	// accounting.
	Background bool
	// JobID attributes the flow's egress to one job of a multi-job run
	// (see Network.JobEgressBytes). Single-job traffic is job 0.
	JobID int
}

// StartFlow begins a transfer of size bytes from src to dst. onDone fires
// when the flow completes or aborts; inspect Flow.Err. The flow begins
// consuming bandwidth after a connection-setup delay of one RTT.
//
// The returned Flow may come from the network's pool (see ReleaseFlow); it is
// valid until the owner releases it or drops the last reference.
func (n *Network) StartFlow(src, dst *Node, size int64, opts FlowOpts, onDone func(*Flow)) *Flow {
	if src == dst {
		panic("netsim: flow from a node to itself")
	}
	if size <= 0 {
		panic("netsim: flow size must be positive")
	}
	f := n.acquireFlow()
	f.ID = n.nextID
	f.Src, f.Dst = src, dst
	f.size = size
	f.started, f.lastUpdate = n.sched.Now(), n.sched.Now()
	f.capMBps = opts.CapMBps
	f.background = opts.Background
	f.job = opts.JobID
	f.onDone = onDone
	f.network = n
	n.nextID++
	f.resources = append(f.resBuf[:0], src.up, dst.down)
	f.link = nil
	if src.Site != dst.Site {
		f.link = n.links[[2]cloud.SiteID{src.Site, dst.Site}]
		if f.link == nil {
			panic(fmt.Sprintf("netsim: no link %s -> %s", src.Site, dst.Site))
		}
		f.resources = append(f.resources, f.link.res)
	}
	if f.capMBps > 0 {
		f.capRes.name = "cap"
		f.capRes.fixedCap = f.capMBps
		f.resources = append(f.resources, &f.capRes)
	}
	n.live = append(n.live, f) // IDs increase, so append keeps ID order
	if opts.NoActivationDelay {
		f.activate()
	} else {
		rtt, ok := n.topo.RTT(src.Site, dst.Site)
		if !ok {
			panic(fmt.Sprintf("netsim: no RTT %s -> %s", src.Site, dst.Site))
		}
		if f.activateFn == nil {
			f.activateFn = f.activate
		}
		if f.activation == nil {
			f.activation = n.sched.After(rtt, f.activateFn)
		} else {
			n.sched.Reschedule(f.activation, n.sched.Now()+rtt)
		}
	}
	return f
}

// activate adds the flow to its resources after the connection-setup delay
// and re-runs the allocator.
func (f *Flow) activate() {
	if f.finished {
		return
	}
	n := f.network
	n.advance()
	f.active = true
	f.lastUpdate = n.sched.Now()
	for _, r := range f.resources {
		r.flows = insertFlowByID(r.flows, f)
	}
	if f.link != nil && !f.background {
		f.link.senders[f.Src]++
	}
	n.reallocate()
}

// acquireFlow pops a released flow from the pool, or builds a fresh one.
func (n *Network) acquireFlow() *Flow {
	if k := len(n.flowFree); k > 0 {
		f := n.flowFree[k-1]
		n.flowFree[k-1] = nil
		n.flowFree = n.flowFree[:k-1]
		f.released = false
		f.done, f.rate = 0, 0
		f.active, f.finished = false, false
		f.err = nil
		f.ended = 0
		f.fixedEpoch = 0
		f.projEnd = 0
		return f
	}
	return &Flow{}
}

// ReleaseFlow hands a finished flow back to the network's pool for reuse by a
// later StartFlow. The caller must be the flow's owner, must call it at most
// once per flow, and must drop every reference afterwards (including captures
// in pending callbacks). Releasing an unfinished flow or releasing twice is a
// no-op, so callers that never release simply leave flows to the garbage
// collector.
func (n *Network) ReleaseFlow(f *Flow) {
	if f == nil || !f.finished || f.released {
		return
	}
	f.released = true
	f.onDone = nil
	n.flowFree = append(n.flowFree, f)
}

// CancelFlow aborts an in-progress flow; its onDone fires with ErrAborted.
func (n *Network) CancelFlow(f *Flow) {
	n.finishFlow(f, ErrAborted)
	n.reschedule()
}

// insertFlowByID inserts f into the ID-ordered slice s, keeping it sorted.
// Flows usually activate in ID order, so the common case appends.
func insertFlowByID(s []*Flow, f *Flow) []*Flow {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID > f.ID })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = f
	return s
}

// removeFlowByID removes f from the ID-ordered slice s, preserving order.
func removeFlowByID(s []*Flow, f *Flow) []*Flow {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= f.ID })
	if i < len(s) && s[i] == f {
		copy(s[i:], s[i+1:])
		s[len(s)-1] = nil
		s = s[:len(s)-1]
	}
	return s
}

// KillNode marks a node failed: its flows abort and new flows through it
// stall at zero rate until RestoreNode.
func (n *Network) KillNode(node *Node) {
	node.failed = true
	var victims []*Flow
	for _, f := range n.live {
		if f.Src == node || f.Dst == node {
			victims = append(victims, f)
		}
	}
	for _, f := range victims {
		n.finishFlow(f, ErrAborted)
	}
	n.reschedule()
}

// RestoreNode clears a node's failed state.
func (n *Network) RestoreNode(node *Node) {
	node.failed = false
	n.reschedule()
}

// SetNodeNICScale degrades (or restores) a node's NIC capacity by a
// multiplicative factor — the "VM performance drop" injection used by the
// environment-awareness experiments. Factor 1 restores nominal capacity.
func (n *Network) SetNodeNICScale(node *Node, factor float64) {
	if factor < 0 {
		panic("netsim: negative NIC scale")
	}
	node.nicScale = factor
	n.reschedule()
}

// SetLinkScale multiplies the capacity of the directed link (experiment
// injection). Scale 1 restores nominal behaviour.
func (n *Network) SetLinkScale(from, to cloud.SiteID, scale float64) {
	l := n.links[[2]cloud.SiteID{from, to}]
	if l == nil {
		panic(fmt.Sprintf("netsim: no link %s -> %s", from, to))
	}
	l.scale = scale
	n.reschedule()
}

// CapacityNow returns the current single-sender capacity of the directed
// link in MB/s — ground truth, unavailable to schedulers except through
// probes.
func (n *Network) CapacityNow(from, to cloud.SiteID) float64 {
	if from == to {
		return n.topo.IntraMBps
	}
	l := n.links[[2]cloud.SiteID{from, to}]
	if l == nil {
		return 0
	}
	return l.spec.BaseMBps * l.factor * l.glitch * l.scale
}

// Probe returns a noisy measurement of the link's single-sender capacity,
// emulating an iperf-style probe.
func (n *Network) Probe(from, to cloud.SiteID) float64 {
	truth := n.CapacityNow(from, to)
	v := truth * (1 + n.opt.ProbeNoise*n.rand.NormFloat64())
	if n.opt.ProbeOutlierProb > 0 && n.rand.Float64() < n.opt.ProbeOutlierProb {
		if n.rand.Float64() < 0.5 {
			v *= n.opt.ProbeOutlierLow
		} else {
			v *= n.opt.ProbeOutlierHigh
		}
	}
	if v < 0.01*truth {
		v = 0.01 * truth
	}
	return v
}

// EgressBytes returns the total bytes that have left the site on WAN links,
// the quantity billed by the provider.
func (n *Network) EgressBytes(site cloud.SiteID) int64 { return n.egress[site] }

// JobEgressBytes returns the WAN egress bytes attributed to one job via
// FlowOpts.JobID. Background (cross-traffic) flows are excluded, exactly as
// in the per-site accounting, so summing JobEgressBytes over JobsSeen equals
// summing EgressBytes over every site.
func (n *Network) JobEgressBytes(job int) int64 {
	if job < 0 || job >= len(n.jobEgress) {
		return 0
	}
	return n.jobEgress[job]
}

// JobsSeen returns the number of job-egress cells allocated so far (one past
// the highest job ID that has finished a WAN flow).
func (n *Network) JobsSeen() int { return len(n.jobEgress) }

// ActiveFlows returns the number of unfinished flows.
func (n *Network) ActiveFlows() int { return len(n.live) }

// advance credits every active flow with bytes for time elapsed since the
// last reallocation, and completes flows that have finished. The byte ledger
// — not the projected-completion heap — decides completion, so
// floating-point rounding in the projection can never change which flows
// finish at an event.
func (n *Network) advance() {
	now := n.sched.Now()
	completed := n.completedScratch[:0]
	for _, f := range n.live {
		if !f.active || f.finished {
			continue
		}
		dt := (now - f.lastUpdate).Seconds()
		if dt > 0 {
			f.done += f.rate * dt * 1e6
			f.lastUpdate = now
		}
		if f.done >= float64(f.size)-0.5 {
			f.done = float64(f.size)
			completed = append(completed, f)
		}
	}
	for _, f := range completed {
		n.finishFlow(f, nil)
	}
	n.completedScratch = completed[:0]
}

func (n *Network) finishFlow(f *Flow, err error) {
	if f.finished {
		return
	}
	if f.active {
		// Credit bytes accumulated since the last reallocation so partial
		// progress of aborted flows is observable.
		if dt := (n.sched.Now() - f.lastUpdate).Seconds(); dt > 0 {
			f.done += f.rate * dt * 1e6
			if f.done > float64(f.size) {
				f.done = float64(f.size)
			}
			f.lastUpdate = n.sched.Now()
		}
	}
	f.finished = true
	f.err = err
	f.ended = n.sched.Now()
	if f.activation != nil {
		n.sched.Cancel(f.activation)
	}
	if f.active && f.Src.Site != f.Dst.Site && !f.background {
		if l := f.link; l != nil {
			if l.senders[f.Src] <= 1 {
				delete(l.senders, f.Src)
			} else {
				l.senders[f.Src]--
			}
		}
		n.egress[f.Src.Site] += int64(f.done)
		n.egressCounter(f.Src.Site).Add(int64(f.done))
		job := f.job
		if job < 0 {
			job = 0
		}
		for len(n.jobEgress) <= job {
			n.jobEgress = append(n.jobEgress, 0)
		}
		n.jobEgress[job] += int64(f.done)
	}
	if f.active {
		for _, r := range f.resources {
			r.flows = removeFlowByID(r.flows, f)
		}
	}
	f.active = false
	f.rate = 0
	n.live = removeFlowByID(n.live, f)
	// Defer the owner's callback to its own event so it observes a settled
	// network; the event and its closure live on the Flow and are reused.
	if f.onDone != nil {
		if f.doneFn == nil {
			f.doneFn = f.fireDone
		}
		if f.doneEv == nil {
			f.doneEv = n.sched.After(0, f.doneFn)
		} else {
			n.sched.Reschedule(f.doneEv, n.sched.Now())
		}
	}
}

// fireDone invokes the owner's completion callback.
func (f *Flow) fireDone() {
	if cb := f.onDone; cb != nil {
		cb(f)
	}
}

// reschedule re-runs advance+reallocate; called after any capacity change.
func (n *Network) reschedule() {
	n.advance()
	n.reallocate()
}

// reallocate computes max-min fair rates for all active flows by progressive
// filling, then schedules a wake-up at the earliest projected completion.
//
// The pass is incremental and allocation-free in steady state: the active
// list and per-resource flow lists are maintained on flow start/finish, the
// per-pass resource ordering and "rate fixed" marks use epoch stamps instead
// of maps, scratch buffers are reused across passes, and the single wake
// event is rearmed in place. Iteration stays in deterministic (flow ID,
// first-seen resource) order so floating-point accumulation and tie-breaking
// are bit-identical to the original rebuild-per-event allocator.
func (n *Network) reallocate() {
	now := n.sched.Now()
	n.allocEpoch++
	epoch := n.allocEpoch
	active := n.activeScratch[:0]
	resOrder := n.resOrderScratch[:0]
	for _, f := range n.live {
		if !f.active || f.finished {
			continue
		}
		active = append(active, f)
		for _, r := range f.resources {
			if r.seenEpoch != epoch {
				r.seenEpoch = epoch
				resOrder = append(resOrder, r)
				r.nflows = len(r.flows)
				r.remaining = r.capacity(len(r.flows))
				if r.remaining < 0 {
					r.remaining = 0
				}
			}
		}
	}
	n.activeScratch, n.resOrderScratch = active, resOrder
	if len(active) == 0 {
		if n.wake != nil {
			n.sched.Cancel(n.wake)
		}
		return
	}
	fixedCount := 0
	for fixedCount < len(active) {
		// Find bottleneck resource: minimum fair share among resources
		// with unfixed flows.
		var bottleneck *resource
		best := math.Inf(1)
		for _, r := range resOrder {
			if r.nflows == 0 {
				continue
			}
			share := r.remaining / float64(r.nflows)
			if share < best {
				best = share
				bottleneck = r
			}
		}
		if bottleneck == nil {
			break
		}
		rate := best
		for _, f := range bottleneck.flows {
			if f.fixedEpoch == epoch {
				continue
			}
			f.fixedEpoch = epoch
			fixedCount++
			f.rate = rate
			f.lastUpdate = now
			for _, r := range f.resources {
				r.remaining -= rate
				if r.remaining < 0 {
					r.remaining = 0
				}
				r.nflows--
			}
		}
	}
	// Rebuild the projected-completion min-heap over the new rates; its top
	// is the earliest completion, where the (reused) wake event is rearmed.
	h := n.etaHeap[:0]
	for _, f := range active {
		if f.rate <= 0 {
			continue
		}
		left := float64(f.size) - f.done
		eta := time.Duration(left / (f.rate * 1e6) * float64(time.Second))
		if eta < time.Microsecond {
			eta = time.Microsecond
		}
		f.projEnd = now + eta
		h = append(h, f)
	}
	heapifyETA(h)
	n.etaHeap = h
	if len(h) > 0 {
		if n.wake != nil {
			n.sched.Reschedule(n.wake, h[0].projEnd)
		} else {
			n.wake = n.sched.At(h[0].projEnd, n.onWake)
		}
	} else if n.wake != nil {
		n.sched.Cancel(n.wake)
	}
}

// etaLess orders flows by (projected completion, ID); the ID tie-break keeps
// the heap deterministic.
func etaLess(a, b *Flow) bool {
	if a.projEnd != b.projEnd {
		return a.projEnd < b.projEnd
	}
	return a.ID < b.ID
}

// heapifyETA builds a min-heap in place, O(n) with zero allocation.
func heapifyETA(h []*Flow) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownETA(h, i)
	}
}

func siftDownETA(h []*Flow, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && etaLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && etaLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
