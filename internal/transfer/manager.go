package transfer

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/route"
	"sage/internal/simtime"
)

// Strategy selects how a transfer is planned and executed.
type Strategy int

// The transfer strategies, from least to most environment-aware.
const (
	// Direct uses a single flow between one source and one destination
	// node.
	Direct Strategy = iota
	// ParallelStatic uses Lanes node pairs fed round-robin with no
	// awareness of the environment.
	ParallelStatic
	// EnvAware uses Lanes node pairs with health-aware dispatch: chunks
	// avoid degraded or failed nodes.
	EnvAware
	// WidestStatic routes lanes along the widest inter-site path computed
	// once at transfer start.
	WidestStatic
	// WidestDynamic recomputes the widest path every replan interval (60s).
	WidestDynamic
	// MultipathStatic spreads lanes across alternative multi-datacenter
	// paths, planned once.
	MultipathStatic
	// MultipathDynamic replans the multipath allocation every replan
	// interval — the full SAGE strategy.
	MultipathDynamic
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Direct:
		return "Direct"
	case ParallelStatic:
		return "ParallelStatic"
	case EnvAware:
		return "EnvAware"
	case WidestStatic:
		return "WidestStatic"
	case WidestDynamic:
		return "WidestDynamic"
	case MultipathStatic:
		return "MultipathStatic"
	case MultipathDynamic:
		return "MultipathDynamic"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Dynamic reports whether the strategy replans during the transfer.
func (s Strategy) Dynamic() bool { return s == WidestDynamic || s == MultipathDynamic }

// Request describes one transfer.
type Request struct {
	From, To cloud.SiteID
	// Size is the payload in bytes.
	Size int64
	// Strategy selects the planner/executor.
	Strategy Strategy
	// Lanes is the number of parallel worker lanes for the non-multipath
	// strategies (default 1).
	Lanes int
	// NodeBudget caps total VMs for the multipath strategies (default 8).
	NodeBudget int
	// MaxPaths bounds multipath alternatives (default 3).
	MaxPaths int
	// Intr is the intrusiveness: fraction of each VM's NIC the transfer
	// may use (default 0.10).
	Intr float64
	// ChunkBytes overrides the manager's chunk size for this request
	// (0 = manager default). File-oriented workloads set it to the file
	// size so each file is one acknowledged unit.
	ChunkBytes int64
	// Resume, when non-nil, restarts an interrupted transfer from its
	// ledger: the original transfer ID and chunking are reused (so re-sent
	// chunks hash identically and stay idempotent at the receiver) and
	// chunks the ledger records as acknowledged are not re-sent. From, To
	// and Size must match the ledger.
	Resume *Ledger
	// JobID attributes the transfer's flows, events and egress to one job
	// of a multi-job run (netsim.FlowOpts.JobID). Single-job callers
	// leave it 0.
	JobID int
}

// Ledger is the durable acknowledgement state of a transfer — enough to
// resume it after a failure without re-sending what the destination already
// acknowledged. The resilience subsystem checkpoints ledgers of in-flight
// transfers; chunk-level dedup by FNV hash covers whatever the ledger is too
// stale to know about.
type Ledger struct {
	// TransferID is reused on resume so chunk hashes match the original.
	TransferID uint64
	From, To   cloud.SiteID
	// Size and ChunkBytes pin the chunking so indices line up on resume.
	Size       int64
	ChunkBytes int64
	// Acked lists acknowledged chunk indices, sorted ascending.
	Acked []int
}

// AckedBytes returns the byte count the ledger records as delivered.
func (l *Ledger) AckedBytes() int64 {
	var n int64
	for _, i := range l.Acked {
		sz := l.ChunkBytes
		if rem := l.Size - int64(i)*l.ChunkBytes; rem < sz {
			sz = rem
		}
		n += sz
	}
	return n
}

// Result reports a finished transfer.
type Result struct {
	Strategy Strategy
	From, To cloud.SiteID
	Bytes    int64
	Duration time.Duration
	// MBps is the achieved end-to-end goodput.
	MBps float64
	// Cost is the modeled monetary cost actually incurred: leased VM time
	// at the configured intrusiveness plus egress for every WAN hop
	// traversed.
	Cost float64
	// NodesUsed is the number of distinct VMs that carried chunks.
	NodesUsed int
	// Chunks is the number of data chunks; HopFlows counts individual
	// hop-level flows (>= Chunks for multi-hop paths).
	Chunks, HopFlows int
	// Acks, Duplicates, Retransmits, Timeouts, Replans are reliability
	// counters.
	Acks, Duplicates, Retransmits, Timeouts, Replans int
	// SkippedBytes counts chunk bytes a resumed transfer did not re-send
	// because its ledger already recorded them as acknowledged.
	SkippedBytes int64
	// EgressCost is the egress component of Cost (WAN bytes billed at the
	// traversed sites' rates); Cost − EgressCost is leased VM time. Per-job
	// accounting and the fair-share scheduler key off it.
	EgressCost float64
}

// defaultIntr is the intrusiveness applied when a request leaves Intr zero.
const defaultIntr = 0.10

// Options configures a Manager.
type Options struct {
	// ChunkBytes is the chunk size (default 32 MB).
	ChunkBytes int64
	// replanInterval drives the dynamic strategies (default 60s); the
	// zero-allocation test shortens it to replan inside its window.
	replanInterval time.Duration
	// Params is the cost/time model calibration (default model.Default).
	Params model.Params
	// Obs, when non-nil, receives the transfer lifecycle's events (start,
	// route, chunk acknowledgements, retransmits, replans, completion) and
	// one event per route-planner call.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 32 << 20
	}
	if o.replanInterval <= 0 {
		o.replanInterval = time.Minute
	}
	if o.Params.Class.Name == "" {
		o.Params = model.Default()
	}
	return o
}

// Manager owns the per-site worker pools and executes transfer requests.
type Manager struct {
	net   *netsim.Network
	mon   *monitor.Service
	sched *simtime.Scheduler
	opt   Options

	pools    map[cloud.SiteID][]*netsim.Node
	poolNext map[cloud.SiteID]int
	nextID   uint64

	// siteList / siteIdx give every site of the topology at NewManager a
	// dense index in lexicographic SiteID order — the basis for the per-run
	// egress arrays.
	siteList []cloud.SiteID
	siteIdx  map[cloud.SiteID]int

	// nodeList / nodeIdx give every deployed VM a dense index so runs track
	// node usage in a bitset instead of a per-transfer map.
	nodeList []*netsim.Node
	nodeIdx  map[*netsim.Node]int

	// runFree / laneFree are the recycled-run and recycled-lane pools; see
	// Recycle. Runs and lanes keep their slabs, queues, event objects and
	// bound callbacks across reuse, so a steady-state transfer allocates
	// nothing.
	runFree  []*transferRun
	laneFree []*lane

	// planner is the persistent incremental route planner. The monitor's
	// estimate-change hook marks edges dirty; every plan query refreshes
	// only those edges instead of rebuilding an n² estimate matrix.
	planner *route.Planner

	// lastPlanner is the planner's cumulative stats after the previous
	// call; notePlanner emits each call as the difference.
	lastPlanner route.PlannerStats
}

// NewManager builds a Manager. mon may be nil, in which case planning falls
// back to the topology's nominal link baselines and no transfer feedback is
// recorded.
func NewManager(net *netsim.Network, mon *monitor.Service, opt Options) *Manager {
	opt = opt.withDefaults()
	m := &Manager{
		net:   net,
		mon:   mon,
		sched: net.Scheduler(),
		opt:   opt,
		pools: make(map[cloud.SiteID][]*netsim.Node),

		poolNext: make(map[cloud.SiteID]int),
		siteIdx:  make(map[cloud.SiteID]int),
		nodeIdx:  make(map[*netsim.Node]int),
	}
	ids := net.Topology().SiteIDs() // sorted
	m.siteList = append(m.siteList, ids...)
	for i, id := range ids {
		m.siteIdx[id] = i
	}
	m.planner = route.NewPlanner(ids, m.estimate)
	if mon != nil {
		mon.OnEstimateChange(m.planner.MarkDirty)
	}
	return m
}

// siteIndex returns the dense index of a site. Every pool node sits in a
// site the topology had when the manager was built.
func (m *Manager) siteIndex(s cloud.SiteID) int {
	i, ok := m.siteIdx[s]
	if !ok {
		panic(fmt.Sprintf("transfer: site %s was added after the manager was built", s))
	}
	return i
}

// Deploy provisions count VMs of the class in a site's worker pool.
func (m *Manager) Deploy(site cloud.SiteID, class cloud.VMClass, count int) []*netsim.Node {
	nodes := m.net.NewNodes(site, class, count)
	m.pools[site] = append(m.pools[site], nodes...)
	for _, nd := range nodes {
		m.nodeIdx[nd] = len(m.nodeList)
		m.nodeList = append(m.nodeList, nd)
	}
	return nodes
}

// Pool returns the worker pool of a site.
func (m *Manager) Pool(site cloud.SiteID) []*netsim.Node { return m.pools[site] }

// take returns the next healthy pool node of a site round-robin, falling
// back to a failed node only when the whole pool is down (the transfer then
// stalls until RestoreNode, which is the correct behaviour for a total
// outage).
func (m *Manager) take(site cloud.SiteID) (*netsim.Node, error) {
	pool := m.pools[site]
	if len(pool) == 0 {
		return nil, fmt.Errorf("transfer: no deployment in site %s", site)
	}
	for attempts := 0; attempts < len(pool); attempts++ {
		i := m.poolNext[site] % len(pool)
		m.poolNext[site] = i + 1
		if !pool[i].Failed() {
			return pool[i], nil
		}
	}
	i := m.poolNext[site] % len(pool)
	m.poolNext[site] = i + 1
	return pool[i], nil
}

// estimate returns the planning throughput for a directed link: the
// monitor's estimate when it has data, otherwise the topology baseline.
func (m *Manager) estimate(from, to cloud.SiteID) float64 {
	if from == to {
		return m.net.Topology().IntraMBps
	}
	if m.mon != nil {
		if mean, _ := m.mon.Estimate(from, to); mean > 0 {
			return mean
		}
	}
	if l := m.net.Topology().Link(from, to); l != nil {
		return l.BaseMBps
	}
	return 0
}

// RouteGraph refreshes the planner's dirty edges and returns the live
// routing graph — weight-identical to a from-scratch GraphFromEstimates
// build over current estimates, without the n² rebuild. The view is
// read-only and valid until the next planner query.
func (m *Manager) RouteGraph() *route.Graph {
	g := m.planner.Graph()
	m.notePlanner()
	return g
}

// Planner exposes the manager's incremental route planner for reports and
// tests.
func (m *Manager) Planner() *route.Planner { return m.planner }

// widestPath plans the current widest path through the incremental planner.
func (m *Manager) widestPath(from, to cloud.SiteID) (route.Path, bool) {
	p, ok := m.planner.WidestPath(from, to)
	m.notePlanner()
	return p, ok
}

// planMultipath plans the current multipath allocation through the
// incremental planner.
func (m *Manager) planMultipath(from, to cloud.SiteID, budget int, par model.Params, maxPaths int) (route.Allocation, bool) {
	a, ok := m.planner.PlanMultipath(from, to, budget, par, maxPaths)
	m.notePlanner()
	return a, ok
}

// notePlanner emits the planner call that just returned: its outcome and
// the dirty and changed edges it committed, read off the cumulative stats.
func (m *Manager) notePlanner() {
	s, d := m.planner.Stats(), m.lastPlanner
	m.lastPlanner = s
	outcome := obs.PlanRefresh
	switch {
	case s.CacheHits != d.CacheHits:
		outcome = obs.PlanHit
	case s.Repairs != d.Repairs:
		outcome = obs.PlanRepair
	case s.FullRecomputes != d.FullRecomputes:
		outcome = obs.PlanFull
	}
	m.opt.Obs.Emit(obs.Event{Kind: obs.EvPlan, At: m.sched.Now(), Note: outcome,
		Value: float64(s.DirtyEdges - d.DirtyEdges), ID: s.ChangedEdges - d.ChangedEdges})
}

func (m *Manager) observe(from, to cloud.SiteID, mbps float64) {
	if m.mon != nil {
		m.mon.ObserveTransfer(from, to, mbps)
	}
}

// Handle tracks an in-progress transfer. Handles are owned by their run: the
// pointer stays valid until the run is handed back via Recycle, after which
// it must not be used.
type Handle struct{ run *transferRun }

// Progress returns acknowledged bytes and total bytes.
func (h *Handle) Progress() (done, total int64) {
	return h.run.ackedBytes, h.run.req.Size
}

// Done reports whether the transfer has completed.
func (h *Handle) Done() bool { return h.run.finished }

// Ledger snapshots the transfer's acknowledgement state for later
// resumption. The snapshot is valid whether the transfer is in flight,
// aborted or finished; Acked is sorted for deterministic serialization.
func (h *Handle) Ledger() Ledger {
	t := h.run
	acked := append([]int(nil), t.ackedIdx...)
	sort.Ints(acked)
	return Ledger{
		TransferID: t.id,
		From:       t.req.From,
		To:         t.req.To,
		Size:       t.req.Size,
		ChunkBytes: t.chunkBytes,
		Acked:      acked,
	}
}

// Abort cancels an in-progress transfer: in-flight flows are killed, queued
// chunks are dropped, replanning stops and onDone never fires. The handle's
// Ledger remains readable so the transfer can be resumed later. Aborting a
// finished transfer is a no-op.
func (m *Manager) Abort(h *Handle) {
	t := h.run
	if t.finished {
		return
	}
	t.finished = true
	t.stopReplan()
	for _, l := range t.lanes {
		l.abort()
	}
}

// Recycle hands a completed (finished or aborted) transfer's run — and its
// chunk slab, lanes, queues and event objects — back to the manager's pool
// for reuse by a later Transfer call. The caller must drop every reference
// to the Handle first, exactly like stream.WindowAgg.Recycle; the Ledger
// snapshot, being a copy, stays valid. Recycling an unfinished transfer is a
// no-op, as is recycling twice. The run is reclaimed only once its last
// in-flight flow callback and acknowledgement have drained, so pending
// simulator events never touch a reused run.
func (m *Manager) Recycle(h *Handle) {
	t := h.run
	if t == nil || !t.finished || t.freed || t.recycleReq {
		return
	}
	t.recycleReq = true
	t.maybeFree()
}

// acquireRun returns a pooled run (with its callbacks already bound and its
// state cleared by freeRun) or a fresh one.
func (m *Manager) acquireRun() *transferRun {
	if k := len(m.runFree); k > 0 {
		t := m.runFree[k-1]
		m.runFree[k-1] = nil
		m.runFree = m.runFree[:k-1]
		t.freed = false
		return t
	}
	t := &transferRun{m: m}
	t.handle.run = t
	t.replanFn = t.replanFire
	return t
}

// freeRun clears a run's per-transfer state and returns it to the pool. The
// caller guarantees quiescence: no in-flight flows, no pending acks.
func (m *Manager) freeRun(t *transferRun) {
	for _, l := range t.lanes {
		m.releaseLane(l)
	}
	for i := range t.lanes {
		t.lanes[i] = nil
	}
	t.lanes = t.lanes[:0]
	for i := range t.pending {
		t.pending[i] = nil
	}
	t.pending = t.pending[:0]
	t.pendHead = 0
	for i := range t.ackedBits {
		t.ackedBits[i] = 0
	}
	for _, idx := range t.nodeTouched {
		t.nodeBits[idx>>6] &^= 1 << uint(idx&63)
	}
	t.nodeTouched = t.nodeTouched[:0]
	for _, idx := range t.egressTouched {
		t.egressAmt[idx] = 0
	}
	t.egressTouched = t.egressTouched[:0]
	t.ackedIdx = t.ackedIdx[:0]
	t.chains = t.chains[:0]
	t.newLanes = t.newLanes[:0]
	t.nodeScratch = t.nodeScratch[:0]
	if t.replanEv != nil {
		m.sched.Cancel(t.replanEv)
	}
	t.onDone = nil
	t.req = Request{}
	t.stats = Result{}
	t.id = 0
	t.laneSeq = 0
	t.rr = 0
	t.chunkBytes = 0
	t.ackedCount = 0
	t.ackedBytes = 0
	t.started = 0
	t.finished = false
	t.recycleReq = false
	t.replanStop = false
	t.freed = true
	m.runFree = append(m.runFree, t)
}

// acquireLane binds a pooled (or fresh) lane to a transfer over the given
// node chain. Hop states — with their bound flow-completion and watchdog
// callbacks and their reusable watchdog events — persist across reuse.
func (m *Manager) acquireLane(t *transferRun, id int, nodes []*netsim.Node) *lane {
	var l *lane
	if k := len(m.laneFree); k > 0 {
		l = m.laneFree[k-1]
		m.laneFree[k-1] = nil
		m.laneFree = m.laneFree[:k-1]
	} else {
		l = &lane{}
	}
	l.id = id
	l.t = t
	l.nodes = append(l.nodes[:0], nodes...)
	l.dead, l.drain = false, false
	l.ewmaMBs = 0
	n := len(nodes) - 1
	for len(l.hops) < n {
		h := &hopState{l: l, i: len(l.hops)}
		h.onFlowDone = h.flowDone
		h.watchdogFn = h.watchdogFire
		l.hops = append(l.hops, h)
	}
	l.nhops = n
	for i := 0; i < n; i++ {
		l.hops[i].reset(nodes[i], nodes[i+1], m.siteIndex(nodes[i].Site))
	}
	return l
}

// releaseLane returns an idle lane to the pool. Callers guarantee the lane
// has no queued chunks and no in-flight flows (so its watchdogs are
// cancelled and no callbacks are pending).
func (m *Manager) releaseLane(l *lane) {
	l.t = nil
	for i := range l.nodes {
		l.nodes[i] = nil
	}
	l.nodes = l.nodes[:0]
	m.laneFree = append(m.laneFree, l)
}

// errNoPool is wrapped by Transfer when a required site has no deployment.
var errNoPool = errors.New("transfer: missing deployment")

// Transfer starts a transfer; onDone receives the Result when the last chunk
// is acknowledged. It returns an error for invalid requests (unknown sites,
// missing deployments, non-positive size).
func (m *Manager) Transfer(req Request, onDone func(Result)) (*Handle, error) {
	if req.Size <= 0 {
		return nil, errors.New("transfer: size must be positive")
	}
	if m.net.Topology().Site(req.From) == nil || m.net.Topology().Site(req.To) == nil {
		return nil, fmt.Errorf("transfer: unknown site %s or %s", req.From, req.To)
	}
	if req.From == req.To {
		return nil, errors.New("transfer: source and destination site are equal")
	}
	if req.Lanes <= 0 {
		req.Lanes = 1
	}
	if req.NodeBudget <= 0 {
		req.NodeBudget = 8
	}
	if req.MaxPaths <= 0 {
		req.MaxPaths = 3
	}
	if req.Intr <= 0 {
		req.Intr = defaultIntr
	}
	chunkBytes := m.opt.ChunkBytes
	if req.ChunkBytes > 0 {
		chunkBytes = req.ChunkBytes
	}
	nchunks := int((req.Size + chunkBytes - 1) / chunkBytes)
	if req.Resume != nil {
		if req.Resume.From != req.From || req.Resume.To != req.To || req.Resume.Size != req.Size {
			return nil, errors.New("transfer: resume ledger does not match request")
		}
		if req.Resume.ChunkBytes > 0 {
			chunkBytes = req.Resume.ChunkBytes
			nchunks = int((req.Size + chunkBytes - 1) / chunkBytes)
		}
		for _, i := range req.Resume.Acked {
			if i < 0 || i >= nchunks {
				return nil, fmt.Errorf("transfer: resume ledger chunk %d out of range", i)
			}
		}
	}
	t := m.acquireRun()
	t.req = req
	t.onDone = onDone
	if req.Resume != nil {
		// Reuse the interrupted transfer's identity so re-sent chunks hash
		// identically: the receiver's dedup makes the overlap idempotent.
		t.id = req.Resume.TransferID
	} else {
		t.id = m.nextID
		m.nextID++
	}
	t.chunkBytes = chunkBytes
	t.slab = splitChunks(t.id, req.Size, chunkBytes, t.slab)
	t.stats.Chunks = len(t.slab)
	t.stats.Strategy = req.Strategy
	t.stats.From, t.stats.To = req.From, req.To
	words := (len(t.slab) + 63) / 64
	for len(t.ackedBits) < words {
		t.ackedBits = append(t.ackedBits, 0)
	}
	if req.Resume != nil {
		for _, i := range req.Resume.Acked {
			t.ackedBits[i>>6] |= 1 << uint(i&63)
		}
		for i := range t.slab {
			c := &t.slab[i]
			if t.ackedBits[c.index>>6]&(1<<uint(c.index&63)) != 0 {
				t.ackedIdx = append(t.ackedIdx, c.index)
				t.ackedCount++
				t.ackedBytes += c.size
				t.stats.SkippedBytes += c.size
				continue
			}
			t.pending = append(t.pending, c)
		}
	} else {
		for i := range t.slab {
			t.pending = append(t.pending, &t.slab[i])
		}
	}
	t.started = m.sched.Now()
	var err error
	if t.ackedCount == t.stats.Chunks {
		// Nothing is left to send. The engine resumes only transfers that
		// were live when their ledger was taken, and the last ack finishes a
		// transfer at once, so none of its ledgers names every chunk.
		err = errors.New("transfer: resume ledger acknowledges every chunk")
	} else {
		err = t.plan()
	}
	if err != nil {
		// A failed buildLanes already released its partial lanes; hand the
		// run back too.
		t.finished = true
		m.freeRun(t)
		return nil, err
	}
	t.emit(obs.Event{Kind: obs.EvTransferStart, Bytes: req.Size, Note: req.Strategy.String()})
	t.emit(obs.Event{Kind: obs.EvRoute, Lanes: len(t.lanes)})
	if req.Strategy.Dynamic() {
		t.armReplan()
	}
	if req.Strategy == ParallelStatic {
		// Static striping: assign every chunk to a lane up front, exactly
		// like a statically tuned striped transfer. No reaction to the
		// environment until a watchdog timeout forces a retransmit.
		n := t.pendLen()
		for i := 0; i < n; i++ {
			c := t.pendPop()
			c.attempts++
			t.lanes[i%len(t.lanes)].accept(c)
		}
	} else {
		t.fill()
	}
	return &t.handle, nil
}

// transferRun is the per-transfer dispatcher state. Runs are pooled on the
// Manager: every slice, bitset, scratch buffer, simulator event and bound
// callback below survives Recycle, so steady-state transfers allocate
// nothing.
type transferRun struct {
	m      *Manager
	req    Request
	id     uint64
	onDone func(Result)
	handle Handle

	// slab holds the transfer's chunks contiguously; pending points into it
	// (pendHead is the consumed prefix, reset when the queue drains).
	slab       []chunk
	pending    []*chunk
	pendHead   int
	lanes      []*lane
	laneSeq    int
	rr         int // round-robin cursor for ParallelStatic
	chunkBytes int64

	// ackedBits is the receiver's dedup state, one bit per chunk index
	// (index and hash are bijective within a transfer).
	ackedBits  []uint64
	ackedCount int
	ackedBytes int64
	ackedIdx   []int // acknowledged chunk indices, in ack order

	// nodeBits/nodeTouched track distinct VMs by manager node index;
	// egressAmt/egressTouched accumulate WAN bytes by site index.
	nodeBits      []uint64
	nodeTouched   []int
	egressAmt     []int64
	egressTouched []int

	stats    Result
	started  simtime.Time
	finished bool

	// Quiescence + recycling state: the run returns to the pool only when
	// recycleReq is set and every flow callback and ack event has drained.
	recycleReq  bool
	freed       bool
	activeFlows int

	// outstandingAcks / ackFree manage the pooled ack-delay events.
	outstandingAcks int
	ackFree         []*ackEvent

	// replanEv drives the dynamic strategies (reused via Reschedule).
	replanFn   func()
	replanEv   *simtime.Event
	replanStop bool

	// buildLanes scratch, reused across replans.
	chains      [][]cloud.SiteID
	directChain [2]cloud.SiteID
	newLanes    []*lane
	nodeScratch []*netsim.Node
}

// emit puts one fact of the transfer on the manager's event spine.
func (t *transferRun) emit(ev obs.Event) {
	ev.At, ev.Job, ev.ID = t.m.sched.Now(), t.req.JobID, t.id
	ev.Site, ev.Peer = string(t.req.From), string(t.req.To)
	t.m.opt.Obs.Emit(ev)
}

// pendLen returns the number of chunks awaiting dispatch.
func (t *transferRun) pendLen() int { return len(t.pending) - t.pendHead }

// pendPop removes and returns the oldest pending chunk.
func (t *transferRun) pendPop() *chunk {
	c := t.pending[t.pendHead]
	t.pending[t.pendHead] = nil
	t.pendHead++
	if t.pendHead == len(t.pending) {
		t.pending = t.pending[:0]
		t.pendHead = 0
	}
	return c
}

// ackedBit reports whether a chunk index has been acknowledged.
func (t *transferRun) ackedBit(idx int) bool {
	return t.ackedBits[idx>>6]&(1<<uint(idx&63)) != 0
}

// plan builds the initial lane set for the request's strategy.
func (t *transferRun) plan() error {
	lanes, err := t.buildLanes(true)
	if err != nil {
		return err
	}
	t.lanes = append(t.lanes[:0], lanes...)
	return nil
}

// buildLanes constructs lanes according to the strategy from fresh
// estimates. The returned slice is the run's scratch: callers copy it into
// t.lanes before the next build. On error, partially built lanes return to
// the pool (node-usage notes from them persist, matching the historical
// accounting). initial marks the transfer's first build, which a multipath
// strategy without a plan starts on the direct chain: refusing the transfer
// would lose its payload, while a later build that finds no plan keeps the
// lanes the transfer has.
func (t *transferRun) buildLanes(initial bool) ([]*lane, error) {
	chains := t.chains[:0]
	switch t.req.Strategy {
	case Direct:
		t.directChain[0], t.directChain[1] = t.req.From, t.req.To
		chains = append(chains, t.directChain[:])
	case ParallelStatic, EnvAware:
		t.directChain[0], t.directChain[1] = t.req.From, t.req.To
		for i := 0; i < t.req.Lanes; i++ {
			chains = append(chains, t.directChain[:])
		}
	case WidestStatic, WidestDynamic:
		p, ok := t.m.widestPath(t.req.From, t.req.To)
		if !ok {
			t.chains = chains
			return nil, fmt.Errorf("transfer: no path %s -> %s", t.req.From, t.req.To)
		}
		for i := 0; i < t.req.Lanes; i++ {
			chains = append(chains, p.Sites)
		}
	case MultipathStatic, MultipathDynamic:
		alloc, ok := t.m.planMultipath(t.req.From, t.req.To,
			t.req.NodeBudget, t.planParams(), t.req.MaxPaths)
		switch {
		case !ok && initial:
			t.directChain[0], t.directChain[1] = t.req.From, t.req.To
			chains = append(chains, t.directChain[:])
		case !ok:
			t.chains = chains
			return nil, fmt.Errorf("transfer: multipath planning failed %s -> %s", t.req.From, t.req.To)
		}
		for _, pa := range alloc.Paths {
			for i := 0; i < pa.Lanes; i++ {
				chains = append(chains, pa.Path.Sites)
			}
		}
	default:
		return nil, fmt.Errorf("transfer: unknown strategy %v", t.req.Strategy)
	}
	t.chains = chains
	lanes := t.newLanes[:0]
	nodes := t.nodeScratch[:0]
	for _, chain := range chains {
		nodes = nodes[:0]
		for _, site := range chain {
			nd, err := t.m.take(site)
			if err != nil {
				for _, l := range lanes {
					t.m.releaseLane(l)
				}
				t.newLanes = lanes[:0]
				t.nodeScratch = nodes[:0]
				return nil, fmt.Errorf("%w: %v", errNoPool, err)
			}
			nodes = append(nodes, nd)
		}
		l := t.m.acquireLane(t, t.laneSeq, nodes)
		t.laneSeq++
		lanes = append(lanes, l)
		for _, nd := range nodes {
			t.noteNode(nd)
		}
	}
	t.newLanes = lanes
	t.nodeScratch = nodes
	return lanes, nil
}

// noteNode marks a VM as engaged by the transfer (for NodesUsed and VM-time
// cost), deduplicating via the manager-indexed bitset.
func (t *transferRun) noteNode(nd *netsim.Node) {
	idx, ok := t.m.nodeIdx[nd]
	if !ok {
		panic(fmt.Sprintf("transfer: node %s was not taken from a pool", nd.ID))
	}
	for idx>>6 >= len(t.nodeBits) {
		t.nodeBits = append(t.nodeBits, 0)
	}
	if t.nodeBits[idx>>6]&(1<<uint(idx&63)) == 0 {
		t.nodeBits[idx>>6] |= 1 << uint(idx&63)
		t.nodeTouched = append(t.nodeTouched, idx)
	}
}

// planParams adapts the manager's model parameters to the request.
func (t *transferRun) planParams() model.Params {
	p := t.m.opt.Params
	p.Intr = t.req.Intr
	return p
}

// timeoutFor returns the stall watchdog deadline for one chunk hop.
func (t *transferRun) timeoutFor(c *chunk) time.Duration {
	est := t.m.estimate(t.req.From, t.req.To)
	if est < 0.5 {
		est = 0.5
	}
	d := time.Duration(10 * float64(c.size) / (est * 1e6) * float64(time.Second))
	if d < 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// fill hands pending chunks to free lanes according to the strategy.
func (t *transferRun) fill() {
	if t.finished {
		return
	}
	for t.pendLen() > 0 {
		l := t.pickLane()
		if l == nil {
			return
		}
		c := t.pendPop()
		if c.attempts > 0 {
			t.stats.Retransmits++
			t.emit(obs.Event{Kind: obs.EvRetransmit, Bytes: c.size, Value: float64(c.attempts)})
		}
		c.attempts++
		l.accept(c)
	}
}

// recordEgress charges one chunk's WAN hop to the source site (by dense site
// index). Chunk sizes are positive, so a zero amount means first touch.
func (t *transferRun) recordEgress(siteIdx int, bytes int64) {
	for siteIdx >= len(t.egressAmt) {
		t.egressAmt = append(t.egressAmt, 0)
	}
	if t.egressAmt[siteIdx] == 0 {
		t.egressTouched = append(t.egressTouched, siteIdx)
	}
	t.egressAmt[siteIdx] += bytes
}

// pickLane selects a free lane per the strategy, or nil when none.
func (t *transferRun) pickLane() *lane {
	switch t.req.Strategy {
	case ParallelStatic:
		// Strict round-robin, oblivious to health — the baseline behaviour.
		for i := 0; i < len(t.lanes); i++ {
			l := t.lanes[(t.rr+i)%len(t.lanes)]
			if l.free() {
				t.rr = (t.rr + i + 1) % len(t.lanes)
				return l
			}
		}
		return nil
	default:
		// Environment-aware: healthy free lanes first. Unexplored lanes
		// (no throughput sample yet) are tried eagerly; among explored
		// ones, the fastest observed wins, and lanes observed running far
		// below the best (a degraded VM or congested path) are shunned
		// while better options exist.
		bestEwma := 0.0
		for _, l := range t.lanes {
			if l.ewmaMBs > bestEwma {
				bestEwma = l.ewmaMBs
			}
		}
		var best *lane
		for _, l := range t.lanes {
			if !l.free() || !l.healthy() {
				continue
			}
			if l.ewmaMBs > 0 && l.ewmaMBs < 0.25*bestEwma {
				continue // problem lane: rely on it less
			}
			switch {
			case best == nil:
				best = l
			case best.ewmaMBs == 0:
				// keep the unexplored lane
			case l.ewmaMBs == 0 || l.ewmaMBs > best.ewmaMBs:
				best = l
			}
		}
		if best != nil {
			return best
		}
		// All healthy lanes busy; for pure EnvAware fall back to any free
		// lane so progress continues even fully degraded.
		for _, l := range t.lanes {
			if l.free() {
				return l
			}
		}
		return nil
	}
}

// requeue returns a chunk to the dispatcher after a failed hop, rebuilding
// the lane set first when every existing lane is dead or unhealthy — the
// self-healing path for transfers that lost all their workers.
func (t *transferRun) requeue(c *chunk, from *lane) {
	if t.finished || t.ackedBit(c.index) {
		return
	}
	t.pending = append(t.pending, c)
	healthy := false
	for _, l := range t.lanes {
		if !l.drain && l.healthy() {
			healthy = true
			break
		}
	}
	if !healthy {
		if lanes, err := t.buildLanes(false); err == nil {
			anyNew := false
			for _, l := range lanes {
				if l.healthy() {
					anyNew = true
					break
				}
			}
			if anyNew {
				for _, l := range t.lanes {
					l.drain = true
				}
				t.lanes = append(t.lanes, lanes...)
				t.stats.Replans++
				t.emit(obs.Event{Kind: obs.EvSelfHeal, Value: float64(t.stats.Replans)})
			} else {
				for _, l := range lanes {
					t.m.releaseLane(l) // unusable build: all nodes down
				}
				t.newLanes = t.newLanes[:0]
			}
		}
	}
	t.fill()
}

// scheduleAck arms a pooled acknowledgement event for the chunk after the
// given delay (half an RTT back to the coordinator).
func (t *transferRun) scheduleAck(c *chunk, d time.Duration) {
	var ae *ackEvent
	if k := len(t.ackFree); k > 0 {
		ae = t.ackFree[k-1]
		t.ackFree[k-1] = nil
		t.ackFree = t.ackFree[:k-1]
	} else {
		ae = &ackEvent{t: t}
		ae.fn = ae.fire
	}
	ae.c = c
	t.outstandingAcks++
	if ae.ev == nil {
		ae.ev = t.m.sched.After(d, ae.fn)
	} else {
		t.m.sched.Reschedule(ae.ev, t.m.sched.Now()+d)
	}
}

// acked records a chunk acknowledgement at the coordinator, deduplicating on
// content (chunk index and hash are bijective within the transfer).
func (t *transferRun) acked(c *chunk) {
	if t.finished {
		return
	}
	t.stats.Acks++
	if t.ackedBit(c.index) {
		t.stats.Duplicates++
		t.emit(obs.Event{Kind: obs.EvDuplicateAck, Bytes: c.size})
		return
	}
	t.ackedBits[c.index>>6] |= 1 << uint(c.index&63)
	t.emit(obs.Event{Kind: obs.EvChunkAck, Bytes: c.size})
	t.ackedCount++
	t.ackedBytes += c.size
	t.ackedIdx = append(t.ackedIdx, c.index)
	if t.ackedCount == t.stats.Chunks {
		t.finish()
	}
}

// flowRetired marks one in-flight flow callback as drained.
func (t *transferRun) flowRetired() {
	t.activeFlows--
	t.maybeFree()
}

// maybeFree recycles the run once requested and quiescent.
func (t *transferRun) maybeFree() {
	if !t.recycleReq || t.freed || !t.finished || t.activeFlows != 0 || t.outstandingAcks != 0 {
		return
	}
	t.m.freeRun(t)
}

// armReplan schedules the first periodic replan, reusing the run's event.
// The arm/refire/stop protocol mirrors simtime.Ticker exactly.
func (t *transferRun) armReplan() {
	t.replanStop = false
	d := t.m.opt.replanInterval
	if t.replanEv == nil {
		t.replanEv = t.m.sched.After(d, t.replanFn)
	} else {
		t.m.sched.Reschedule(t.replanEv, t.m.sched.Now()+d)
	}
}

// replanFire is the periodic replan callback.
func (t *transferRun) replanFire() {
	if t.replanStop {
		return
	}
	t.replan()
	if !t.replanStop {
		t.m.sched.Reschedule(t.replanEv, t.m.sched.Now()+t.m.opt.replanInterval)
	}
}

// stopReplan prevents further periodic replans.
func (t *transferRun) stopReplan() {
	t.replanStop = true
	if t.replanEv != nil {
		t.m.sched.Cancel(t.replanEv)
	}
}

// replan rebuilds lanes from fresh estimates for dynamic strategies. Old
// lanes drain: they finish in-flight chunks but accept no new ones; lanes
// already idle return to the pool.
func (t *transferRun) replan() {
	if t.finished {
		return
	}
	lanes, err := t.buildLanes(false)
	if err != nil {
		return // keep current lanes; the environment may recover
	}
	t.stats.Replans++
	t.emit(obs.Event{Kind: obs.EvReplan, Value: float64(t.stats.Replans), Lanes: len(lanes), Note: t.req.Strategy.String()})
	// Drain current lanes and discard the ones that are already idle.
	kept := t.lanes[:0]
	for _, l := range t.lanes {
		l.drain = true
		if l.busy() {
			kept = append(kept, l)
		} else {
			t.m.releaseLane(l)
		}
	}
	t.lanes = append(kept, lanes...)
	t.fill()
}

// finish completes the transfer and reports the result.
func (t *transferRun) finish() {
	t.finished = true
	t.stopReplan()
	for _, l := range t.lanes {
		l.abort()
	}
	dur := t.m.sched.Now() - t.started
	t.stats.Bytes = t.ackedBytes
	t.stats.Duration = dur
	if s := dur.Seconds(); s > 0 {
		t.stats.MBps = float64(t.ackedBytes) / 1e6 / s
	}
	t.stats.NodesUsed = len(t.nodeTouched)
	// Cost: leased VM time at the request's intrusiveness for every node
	// engaged, plus egress for every WAN hop crossed. Accumulation order is
	// sorted — node indices by VM ID, egress by site ID (== ascending site
	// index) — so float summation is deterministic and matches the map-era
	// sort.Strings ordering. Insertion sort: the sets are tiny and nearly
	// sorted, and sort.Slice would allocate its closure.
	cost := 0.0
	ids := t.nodeTouched
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && t.m.nodeList[ids[j]].ID < t.m.nodeList[ids[j-1]].ID; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, idx := range ids {
		cost += t.m.nodeList[idx].Class.PricePerHour * dur.Hours() * t.req.Intr
	}
	eg := t.egressTouched
	for i := 1; i < len(eg); i++ {
		for j := i; j > 0 && eg[j] < eg[j-1]; j-- {
			eg[j], eg[j-1] = eg[j-1], eg[j]
		}
	}
	topo := t.m.net.Topology()
	egCost := 0.0
	for _, idx := range eg {
		if s := topo.Site(t.m.siteList[idx]); s != nil {
			egCost += cloud.EgressCost(s, t.egressAmt[idx])
		}
	}
	cost += egCost
	t.stats.Cost = cost
	t.stats.EgressCost = egCost
	t.emit(obs.Event{Kind: obs.EvTransferDone, Dur: dur, Bytes: t.stats.Bytes, Note: t.req.Strategy.String()})
	if t.onDone != nil {
		t.onDone(t.stats)
	}
}
