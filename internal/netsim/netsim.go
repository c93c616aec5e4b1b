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
// process resampled every updateInterval, plus a Poisson "glitch" process
// that multiplies capacity by a random depth for a random duration —
// reproducing the published observation that cloud WAN performance has high
// variance, no trend, and drops or bursts at any moment.
//
// Aggregate parallelism: a wide-area link's capacity grows sublinearly with
// the number of distinct sender nodes using it (cloud providers route
// distinct VM pairs over distinct switch paths), as capacity(k) =
// base * min(aggMax, k^aggAlpha). This is what makes adding nodes to a
// transfer worthwhile, with diminishing returns.
//
// # Reallocation
//
// Rates change only at events (a flow activating or finishing, a capacity
// resample, a glitch, an injection). Each event marks the resources whose
// capacity or membership it changed; the allocator then walks flows and
// resources outward from those marks and re-runs progressive filling over
// the connected components it reaches, in flow-ID order. Max-min components
// share no resource, so the result is bit for bit what filling the whole
// world would give, at the cost of the handful of flows one event can
// affect. The walk marks the ledger rows of the flows it reaches in a bitset,
// and the fill visits the marked rows in ascending order, which is ID order:
// one path, with no sort and no search, serves a one-flow component and the
// whole ledger alike. Two things stay world-wide because laziness would move
// floating-point results: every active flow is credited its bytes at every
// event, and every active flow's completion is re-projected at every pass to
// find the next wake-up (see advance and reallocate). Both are sweeps over
// the flow ledger, a dense ID-ordered slice of the active flows' byte counts
// and rates.
//
// Other tenants' cross-traffic (Options.CrossTrafficMeanGap) loads the link
// it crosses and nothing else: its endpoints stand for many tenants' VMs and
// have no NIC of their own.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"sage/internal/cloud"
	"sage/internal/obs"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// The simulator's fixed laws: how often link capacity is resampled, the
// exponent and cap of the sublinear aggregate-parallelism law, the
// multipliers of an outlier probe, and the default mean size of a
// background flow.
const (
	updateInterval        = 5 * time.Second
	aggAlpha              = 0.65
	aggMax                = 4.0
	probeOutlierLow       = 0.25
	probeOutlierHigh      = 2.5
	meanCrossTrafficBytes = 64 << 20
)

// Options configures the simulator. Zero fields take defaults.
type Options struct {
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
	// deliverable capacity: the sample is multiplied by 0.25 or 2.5 with
	// equal probability. Default 0 (disabled).
	ProbeOutlierProb float64
	// CapacityFloor/Ceil clamp the OU factor (defaults 0.15 and 1.8).
	CapacityFloor, CapacityCeil float64
	// CrossTrafficMeanGap, when positive, generates background flows on
	// every WAN link with exponentially distributed inter-arrival times:
	// other tenants' traffic competing for the same links. Background flows
	// consume capacity in the max-min allocation but do not add aggregate
	// parallelism. Their sizes are drawn log-normally.
	CrossTrafficMeanGap time.Duration
	// crossTrafficMeanBytes is the mean background flow size (default
	// 64 MB); the churn oracle shrinks it to keep its world small.
	crossTrafficMeanBytes int64
	// Obs, when non-nil, receives the network's events: each link resample
	// (capacity and senders), each finished WAN flow's egress and each
	// reallocation pass. Nil (the default) records nothing; the simulation
	// is the same either way.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
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
	if o.CapacityFloor == 0 {
		o.CapacityFloor = 0.15
	}
	if o.CapacityCeil == 0 {
		o.CapacityCeil = 1.8
	}
	if o.crossTrafficMeanBytes <= 0 {
		o.crossTrafficMeanBytes = meanCrossTrafficBytes
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

	// up / down are the node's NIC directions; nil on the hidden tenant
	// nodes of the cross-traffic generator, whose flows load the link only.
	up   *resource
	down *resource
}

// Failed reports whether the node is currently marked failed.
func (n *Node) Failed() bool { return n.failed }

// ErrAborted is reported by flows cancelled explicitly or killed by a node
// failure.
var ErrAborted = errors.New("netsim: flow aborted")

// Flow is an in-progress point-to-point transfer.
type Flow struct {
	ID       uint64
	Src, Dst *Node

	size int64
	// done is the final byte count once the flow has left the ledger; while
	// the flow is active its bytes and rate live in its ledger row.
	done       float64
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
	// compEpoch marks the flow as reached by the component walk, and
	// fixedEpoch as rate-fixed, in the component with the matching
	// Network.compStamp. Stamps only grow, so a pooled flow's stale stamps
	// never match and need no reset. row is the flow's index in the ledger
	// while it is active: Network.rows[f.row].f == f, kept so by enterRow and
	// leaveRow.
	compEpoch  uint64
	fixedEpoch uint64
	row        int

	// activateFn / doneFn are the activation and deferred-completion
	// callbacks, bound to the Flow once so pooled reuse schedules no new
	// closures; doneEv is the reusable deferred-completion event. released
	// marks a flow currently sitting in the network's free list.
	activateFn func()
	doneFn     func()
	doneEv     *simtime.Event
	released   bool
}

// BytesDone returns the bytes transferred so far (advanced lazily; exact at
// event boundaries).
func (f *Flow) BytesDone() int64 {
	if f.active {
		return int64(f.network.rowOf(f).done)
	}
	return int64(f.done)
}

// Rate returns the currently allocated rate in MB/s.
func (f *Flow) Rate() float64 {
	if f.active {
		return f.network.rowOf(f).rate
	}
	return 0
}

// Err returns nil for a successfully completed flow, ErrAborted otherwise.
func (f *Flow) Err() error { return f.err }

// Finished reports whether the flow has completed or aborted.
func (f *Flow) Finished() bool { return f.finished }

// Duration returns the virtual time from a finished flow's start to its end,
// and 0 for a flow that is still in progress (whose end time is not yet
// meaningful).
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

	// dirtyEpoch marks the resource as dirty for the reallocation pass with
	// that number (see markDirty). compEpoch marks it as reached by the
	// walk of the component with that Network.compStamp, and seenEpoch as
	// entered into that component's fill order.
	dirtyEpoch uint64
	compEpoch  uint64
	seenEpoch  uint64

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
}

// aggLaw tabulates the aggregate-parallelism law: aggLaw[k] is
// min(aggMax, k^aggAlpha) for k distinct senders, k < 1 read as 1, up to the
// first k at which the law reaches aggMax. It is the only place the law is
// computed; capacityFor reads it instead of calling math.Pow for every link
// of every fill.
var aggLaw = func() (law []float64) {
	for k := 0; len(law) == 0 || law[len(law)-1] < aggMax; k++ {
		law = append(law, math.Min(aggMax, math.Pow(float64(max(k, 1)), aggAlpha)))
	}
	return law
}()

func (l *wanLink) capacityFor(k int) float64 {
	agg := aggMax
	if k < len(aggLaw) {
		agg = aggLaw[max(k, 0)]
	}
	return l.spec.BaseMBps * l.factor * l.glitch * l.scale * agg
}

// flowRow is one active flow's entry in the flow ledger: what the per-event
// sweeps read and write, kept contiguous so that crediting bytes and
// projecting completions over every active flow touch no Flow.
type flowRow struct {
	done float64 // bytes transferred through Network.credited
	rate float64 // current MB/s
	size float64 // float64(Flow.size)
	id   uint64  // Flow.ID, the ledger's order
	f    *Flow
}

// Network is the simulator. Create with New; drive by running the scheduler.
type Network struct {
	sched *simtime.Scheduler
	topo  *cloud.Topology
	opt   Options
	rand  *rng.Rand

	nodes []*Node
	// links looks a directed link up by its endpoints; linkList holds the
	// same links in topo.Links() order for everything that visits them all,
	// so no pass depends on map iteration order.
	links    map[[2]cloud.SiteID]*wanLink
	linkList []*wanLink
	nextID   uint64
	wake     *simtime.Event
	onWake   func()
	egress   map[cloud.SiteID]int64
	// jobEgress accumulates WAN egress bytes per job ID (dense; grown on
	// demand). Cross-job flow attribution: every non-background WAN flow
	// adds its delivered bytes to its job's cell, so a multi-job run can
	// bill each tenant exactly, and the per-job sum equals the per-site sum.
	jobEgress []int64
	nodeSeq   map[cloud.SiteID]int

	// live is the ID-ordered list of unfinished flows (including flows
	// still in their activation delay). IDs are assigned in increasing
	// order, so StartFlow appends and finishFlow removes in place: no
	// map-dump-and-sort per event.
	live []*Flow

	// rows is the flow ledger: one row per active flow, in ID order, entered
	// on activation and left on finish. Every row is credited through the
	// instant credited; advance moves it to the current event.
	rows     []flowRow
	credited simtime.Time

	// allocEpoch numbers the reallocation passes and compStamp the
	// components they fill; resources and flows are stamped with them
	// instead of tracking membership in per-call maps. Both only ever grow.
	allocEpoch uint64
	compStamp  uint64

	// dirty lists the resources whose membership or capacity changed since
	// the last pass (see markDirty). The next reallocate re-rates the flows
	// reachable from them and nothing else, and leaves it empty.
	dirty []*resource
	// rerated is the number of flows the last pass re-rated.
	rerated int

	// marked is a bitset over the ledger's rows: the component walk sets
	// the bit of every flow it reaches, and fill visits the set bits in
	// ascending order and clears them. markLo and markHi bound the words
	// the walk of the current component touched, so that filling one of a
	// resample's hundreds of components scans its own words only. Outside
	// a walk and its fill every bit is zero.
	marked         []uint64
	markLo, markHi int

	// Reusable scratch buffers for the allocator and advance, so steady
	// state reallocation performs no heap allocation.
	workScratch      []*resource
	resOrderScratch  []*resource
	completedScratch []*Flow

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
		}
		l.res = &resource{
			name:  fmt.Sprintf("wan:%s>%s", spec.From, spec.To),
			capFn: func(k int) float64 { return l.capacityFor(len(l.senders)) },
		}
		n.links[key] = l
		n.linkList = append(n.linkList, l)
		n.scheduleGlitch(l, lr)
	}
	sched.NewTicker(updateInterval, func(now simtime.Time) { n.resample() })
	if opt.CrossTrafficMeanGap > 0 {
		n.startCrossTraffic(r)
	}
	return n
}

// startCrossTraffic provisions hidden per-site tenant nodes and schedules
// Poisson background flows on every WAN link.
//
// Tenant nodes are unmetered: other tenants' traffic loads the link it
// crosses and nothing else. One shared endpoint per site stands for many
// tenants' VMs, so a NIC on it could never bind, yet as a resource it would
// join every background flow of the site — and through the hubs of the
// world — into one component that every arrival re-rates.
func (n *Network) startCrossTraffic(r *rng.Rand) {
	hidden := make(map[cloud.SiteID]*Node)
	for _, s := range n.topo.Sites() {
		hidden[s.ID] = n.newNode(s.ID, cloud.VMClass{Name: "tenant"}, false)
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
					mean := float64(n.opt.crossTrafficMeanBytes)
					size := int64(lr.LogNormal(math.Log(mean)-0.5, 1.0))
					if size < 1<<20 {
						size = 1 << 20
					}
					active++
					n.StartFlow(hidden[spec.From], hidden[spec.To], size,
						FlowOpts{background: true}, func(*Flow) { active-- })
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
	dt := updateInterval.Seconds()
	for _, l := range n.linkList {
		v := l.ou.Step(dt)
		l.factor = math.Min(n.opt.CapacityCeil, math.Max(n.opt.CapacityFloor, v))
		n.markDirty(l.res)
		n.opt.Obs.Emit(obs.Event{Kind: obs.EvResample, At: n.sched.Now(),
			Site: string(l.spec.From), Peer: string(l.spec.To),
			Value: l.capacityFor(len(l.senders)), Nodes: len(l.senders)})
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
		n.markDirty(l.res)
		n.reschedule()
		n.sched.After(dur, func() {
			l.glitch = 1
			n.markDirty(l.res)
			n.reschedule()
			n.scheduleGlitch(l, lr)
		})
	})
}

// NewNode provisions a VM in the given site.
func (n *Network) NewNode(site cloud.SiteID, class cloud.VMClass) *Node {
	return n.newNode(site, class, true)
}

// newNode provisions a node; an unmetered one has no NIC resources, so its
// flows are limited by the link they cross (and their own cap) only.
func (n *Network) newNode(site cloud.SiteID, class cloud.VMClass, metered bool) *Node {
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
	if metered {
		nic := func(int) float64 {
			if node.failed {
				return 0
			}
			return node.Class.NICMBps * node.nicScale
		}
		node.up = &resource{name: node.ID + "/up", capFn: nic}
		node.down = &resource{name: node.ID + "/down", capFn: nic}
	}
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
	// noActivationDelay skips the connection-setup latency: the package's
	// benchmarks start their flows active.
	noActivationDelay bool
	// background marks other-tenant traffic (the cross-traffic generator's):
	// it consumes link capacity but does not count toward the
	// aggregate-parallelism law or egress accounting.
	background bool
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
	f.started = n.sched.Now()
	f.capMBps = opts.CapMBps
	f.background = opts.background
	f.job = opts.JobID
	f.onDone = onDone
	f.network = n
	n.nextID++
	f.resources = f.resBuf[:0]
	if src.up != nil {
		f.resources = append(f.resources, src.up)
	}
	if dst.down != nil {
		f.resources = append(f.resources, dst.down)
	}
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
	if opts.noActivationDelay {
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
	n.enterRow(f)
	for _, r := range f.resources {
		r.flows = insertFlowByID(r.flows, f)
	}
	if f.link != nil && !f.background {
		f.link.senders[f.Src]++
	}
	n.markFlowDirty(f)
	n.reallocate()
}

// acquireFlow pops a released flow from the pool, or builds a fresh one.
func (n *Network) acquireFlow() *Flow {
	if k := len(n.flowFree); k > 0 {
		f := n.flowFree[k-1]
		n.flowFree[k-1] = nil
		n.flowFree = n.flowFree[:k-1]
		f.released = false
		f.done = 0
		f.active, f.finished = false, false
		f.err = nil
		f.ended = 0
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

// rowIndex returns where the row of flow id would be in the ID-ordered
// ledger.
func (n *Network) rowIndex(id uint64) int {
	lo, hi := 0, len(n.rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.rows[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rowOf returns the ledger row of an active flow.
func (n *Network) rowOf(f *Flow) *flowRow { return &n.rows[f.row] }

// enterRow adds a newly active flow to the ledger, credited from now on, and
// renumbers the rows it shifted. Flows usually activate in ID order, so the
// common case appends and renumbers only itself.
func (n *Network) enterRow(f *Flow) {
	i := n.rowIndex(f.ID)
	n.rows = append(n.rows, flowRow{})
	copy(n.rows[i+1:], n.rows[i:])
	n.rows[i] = flowRow{size: float64(f.size), id: f.ID, f: f}
	n.renumber(i)
	if len(n.marked)*64 < len(n.rows) {
		n.marked = append(n.marked, 0)
	}
}

// leaveRow removes an active flow from the ledger, renumbers the rows it
// shifted, and returns its row.
func (n *Network) leaveRow(f *Flow) flowRow {
	i := f.row
	row := n.rows[i]
	copy(n.rows[i:], n.rows[i+1:])
	n.rows[len(n.rows)-1] = flowRow{}
	n.rows = n.rows[:len(n.rows)-1]
	n.renumber(i)
	return row
}

// renumber restores Flow.row for the rows from i on.
func (n *Network) renumber(i int) {
	for ; i < len(n.rows); i++ {
		n.rows[i].f.row = i
	}
}

// mark sets the bit of ledger row i and widens the marked word range.
func (n *Network) mark(i int) {
	w := i >> 6
	n.marked[w] |= 1 << (i & 63)
	n.markLo = min(n.markLo, w)
	n.markHi = max(n.markHi, w)
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
	n.markNodeDirty(node)
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
	n.markNodeDirty(node)
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
	n.markNodeDirty(node)
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
	n.markDirty(l.res)
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
			v *= probeOutlierLow
		} else {
			v *= probeOutlierHigh
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
// last event, and completes flows that have finished, in one sweep over the
// ledger. The byte ledger — not the projected completion behind the wake
// event — decides completion, so floating-point rounding in the projection
// can never change which flows finish at an event. The ledger is world-wide
// on purpose, whatever the scope of the pass that follows: crediting a flow
// only when its rate changes would add up the same bytes in fewer, larger
// steps, and round differently. Every row is credited through the same
// instant, so one elapsed time serves them all; at the instant already
// credited there is nothing to add, and no row can have reached its size
// since the sweep that credited it (a row enters with no bytes), so advance
// returns at once.
func (n *Network) advance() {
	now := n.sched.Now()
	if now == n.credited {
		return
	}
	dt := (now - n.credited).Seconds()
	n.credited = now
	completed := n.completedScratch[:0]
	for i := range n.rows {
		row := &n.rows[i]
		row.done += row.rate * dt * 1e6
		if row.done >= row.size-0.5 {
			row.done = row.size
			completed = append(completed, row.f)
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
		// Credit bytes accumulated since the last event so partial progress
		// of aborted flows is observable.
		row := n.leaveRow(f)
		if dt := (n.sched.Now() - n.credited).Seconds(); dt > 0 {
			row.done += row.rate * dt * 1e6
			if row.done > row.size {
				row.done = row.size
			}
		}
		f.done = row.done
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
		job := f.job
		if job < 0 {
			job = 0
		}
		n.opt.Obs.Emit(obs.Event{Kind: obs.EvEgress, At: n.sched.Now(), Job: job,
			Site: string(f.Src.Site), Bytes: int64(f.done)})
		for len(n.jobEgress) <= job {
			n.jobEgress = append(n.jobEgress, 0)
		}
		n.jobEgress[job] += int64(f.done)
	}
	if f.active {
		for _, r := range f.resources {
			r.flows = removeFlowByID(r.flows, f)
		}
		n.markFlowDirty(f)
	}
	f.active = false
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

// markDirty records that r's capacity or flow membership changed, so the next
// reallocate re-rates everything reachable from it. Every mutation of either
// must call it: a rate is only ever recomputed for a flow the walk from the
// dirty resources reaches. The stamp of the coming pass deduplicates marks
// without a flag to clear.
func (n *Network) markDirty(r *resource) {
	if next := n.allocEpoch + 1; r.dirtyEpoch != next {
		r.dirtyEpoch = next
		n.dirty = append(n.dirty, r)
	}
}

// markFlowDirty marks the shared resources f crosses, on its activation and
// its finish (which also covers the sender count behind the link's aggregate
// law). The per-flow cap is left out: it lives inside the pooled Flow and can
// connect f to nothing.
func (n *Network) markFlowDirty(f *Flow) {
	for _, r := range f.resources {
		if r != &f.capRes {
			n.markDirty(r)
		}
	}
}

// markNodeDirty marks both NIC directions of a (metered) node.
func (n *Network) markNodeDirty(node *Node) {
	n.markDirty(node.up)
	n.markDirty(node.down)
}

// reschedule re-runs advance+reallocate; called after any capacity change,
// with the changed resources marked dirty.
func (n *Network) reschedule() {
	n.advance()
	n.reallocate()
}

// reallocate recomputes max-min fair rates by progressive filling for the
// flows an event can have changed, then schedules a wake-up at the earliest
// projected completion.
//
// Scope. Max-min rates couple only through shared resources, so the pass
// walks flows <-> resources outward from each dirty resource in turn and
// re-rates the connected components it reaches, one at a time; every other
// flow keeps its rate, which is the one a world-wide pass would compute again
// because nothing it depends on moved. A component's fill takes its flow and
// resource order from flow IDs (flow ID, first-seen resource), never from the
// dirty list or the walk: components share no resource, so the sequence of
// bottlenecks, subtractions and tie-breaks within one is the subsequence a
// world-wide pass would execute for its flows, and every rate is
// bit-identical to it. Filling components apart also spares each the others'
// resources in its bottleneck scans.
//
// The wake projection stays world-wide on purpose (see project).
//
// The pass is allocation-free in steady state: per-resource flow lists are
// maintained on flow start/finish, membership marks are epoch stamps instead
// of maps, scratch buffers are reused across passes, and the single wake
// event is rearmed in place.
func (n *Network) reallocate() {
	n.allocEpoch++
	// A flow or resource stamped above base was reached earlier in this
	// pass.
	base := n.compStamp
	rerated := 0
	work := n.workScratch
	for _, seed := range n.dirty {
		// A resource no flow crosses leads nowhere.
		if seed.compEpoch > base || len(seed.flows) == 0 {
			continue
		}
		n.compStamp++
		stamp := n.compStamp
		seed.compEpoch = stamp
		work = append(work[:0], seed)
		reached := 0
		n.markLo, n.markHi = len(n.marked), -1
		for len(work) > 0 {
			r := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range r.flows {
				if f.compEpoch > base {
					continue
				}
				f.compEpoch = stamp
				n.mark(f.row)
				reached++
				for _, fr := range f.resources {
					// A resource f has to itself (its cap, usually its
					// NICs) leads nowhere.
					if len(fr.flows) > 1 && fr.compEpoch <= base {
						fr.compEpoch = stamp
						work = append(work, fr)
					}
				}
			}
		}
		if reached > 0 {
			rerated += reached
			n.fill(stamp, reached)
		}
	}
	n.workScratch = work
	n.dirty = n.dirty[:0]
	n.rerated = rerated
	n.opt.Obs.Emit(obs.Event{Kind: obs.EvRealloc, At: n.sched.Now(), Value: float64(rerated)})
	n.project()
}

// project re-projects every active flow's completion from the current
// instant, in one sweep over the ledger, and rearms the (reused) wake event
// at the earliest. It is world-wide on purpose: projecting lazily would
// change where the nanosecond truncation of the ETA falls and with it every
// downstream timestamp. Only the earliest instant is kept, so the order of
// the rows cannot reach it.
func (n *Network) project() {
	now := n.sched.Now()
	wakeAt, armed := simtime.Forever, false
	for i := range n.rows {
		row := &n.rows[i]
		if row.rate <= 0 {
			continue
		}
		eta := time.Duration((row.size - row.done) / (row.rate * 1e6) * float64(time.Second))
		if eta < time.Microsecond {
			eta = time.Microsecond
		}
		if end := now + eta; !armed || end < wakeAt {
			wakeAt, armed = end, true
		}
	}
	switch {
	case !armed:
		n.sched.Cancel(n.wake)
	case n.wake == nil:
		n.wake = n.sched.At(wakeAt, n.onWake)
	default:
		n.sched.Reschedule(n.wake, wakeAt)
	}
}

// fill runs progressive filling over the count flows of one component, which
// the walk stamped with stamp and whose ledger rows it marked within words
// markLo..markHi. It visits the marked rows in ascending order — ledger
// order, and so flow-ID order — clearing each bit as it goes, and meets the
// component's resources in the order of the first flow that crosses each.
// Whatever the component's size, this is the one path to its order: no
// sort, and no search for a row.
func (n *Network) fill(stamp uint64, count int) {
	resOrder := n.resOrderScratch[:0]
	for w := n.markLo; w <= n.markHi; w++ {
		word := n.marked[w]
		n.marked[w] = 0
		for ; word != 0; word &= word - 1 {
			f := n.rows[w<<6|bits.TrailingZeros64(word)].f
			for _, r := range f.resources {
				if r.seenEpoch != stamp {
					r.seenEpoch = stamp
					resOrder = append(resOrder, r)
					r.nflows = len(r.flows)
					r.remaining = r.capacity(len(r.flows))
					if r.remaining < 0 {
						r.remaining = 0
					}
				}
			}
		}
	}
	n.resOrderScratch = resOrder
	fixedCount := 0
	for fixedCount < count {
		// Find bottleneck resource: minimum fair share among resources
		// with unfixed flows, the first in resOrder on a tie. A resource
		// whose flows are all fixed stays so, and leaves resOrder in the
		// same scan; the rest keep their order.
		var bottleneck *resource
		best := math.Inf(1)
		live := resOrder[:0]
		for _, r := range resOrder {
			if r.nflows == 0 {
				continue
			}
			live = append(live, r)
			share := r.remaining / float64(r.nflows)
			if share < best {
				best = share
				bottleneck = r
			}
		}
		resOrder = live
		if bottleneck == nil {
			break
		}
		rate := best
		for _, f := range bottleneck.flows {
			if f.fixedEpoch == stamp {
				continue
			}
			f.fixedEpoch = stamp
			fixedCount++
			n.rows[f.row].rate = rate
			for _, r := range f.resources {
				r.remaining -= rate
				if r.remaining < 0 {
					r.remaining = 0
				}
				r.nflows--
			}
		}
	}
}
