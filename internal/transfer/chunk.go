// Package transfer implements SAGE's data-movement service: it executes
// wide-area transfers between site deployments by splitting data into
// acknowledged, hashed chunks and streaming them over one or more worker
// lanes — node chains that may pass through intermediate datacenters.
//
// A transfer is driven by a strategy:
//
//   - Direct: one flow, source node to destination node (the
//     endpoint-to-endpoint baseline).
//   - ParallelStatic: n source/destination node pairs fed round-robin, no
//     environment awareness (the statically tuned "GridFTP-like" baseline).
//   - EnvAware: n pairs with throughput-aware dispatch, per-lane health
//     tracking and chunk retransmission.
//   - WidestStatic / WidestDynamic: lanes follow the widest inter-site path
//     from the monitor's graph, planned once or replanned periodically.
//   - MultipathStatic / MultipathDynamic: the full multi-datacenter
//     allocation from route.PlanMultipath, spreading lanes across
//     alternative paths.
//
// Chunks carry metadata (transfer id, index, content hash). Receivers
// deduplicate on hash, so retransmissions after timeouts never double-count;
// acknowledgements flow back to the coordinator which marks completion.
// This application-level confirmation is what lets a transfer survive the
// failure of intermediate nodes.
//
// The execution path is allocation-free at steady state: chunks live in a
// per-run slab, runs and lanes are pooled on the Manager (see
// Manager.Recycle), flow-completion and watchdog callbacks are bound to
// per-hop structs once, and acknowledgement/watchdog/replan events are
// rearmed in place via simtime.Scheduler.Reschedule.
package transfer

import (
	"sage/internal/netsim"
	"sage/internal/simtime"
)

// chunk is one unit of transfer with its recomposition metadata.
type chunk struct {
	transferID uint64
	index      int
	size       int64
	hash       uint64
	// attempts counts dispatches, for retransmit accounting.
	attempts int
}

// FNV-1a 64-bit parameters (hash/fnv, FNV-0 offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// chunkHash derives the synthetic content hash for a chunk. Real SAGE hashes
// payload bytes; the simulator has no payloads, so the hash is derived from
// identity, which preserves the property the system relies on: identical
// chunks collide, distinct chunks do not. The hash is FNV-1a over the fixed
// 16-byte big-endian encoding of (transferID, index), computed directly so
// hashing a chunk costs a few dozen multiplies and no heap traffic
// (TestChunkHashMatchesFNV pins it against hash/fnv over the same bytes).
func chunkHash(transferID uint64, index int) uint64 {
	h := uint64(fnvOffset64)
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (transferID >> uint(shift) & 0xff)) * fnvPrime64
	}
	idx := uint64(index)
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (idx >> uint(shift) & 0xff)) * fnvPrime64
	}
	return h
}

// splitChunks cuts size bytes into chunks of at most chunkSize, filling and
// returning dst — a reusable slab, grown only when a transfer needs more
// chunks than any before it. Pointers into the returned slab stay valid until
// the next splitChunks call on the same slab.
func splitChunks(transferID uint64, size, chunkSize int64, dst []chunk) []chunk {
	if chunkSize <= 0 {
		panic("transfer: chunk size must be positive")
	}
	n := int((size + chunkSize - 1) / chunkSize)
	if cap(dst) < n {
		dst = make([]chunk, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		sz := chunkSize
		if rem := size - int64(i)*chunkSize; rem < sz {
			sz = rem
		}
		dst = append(dst, chunk{
			transferID: transferID,
			index:      i,
			size:       sz,
			hash:       chunkHash(transferID, i),
		})
	}
	return dst
}

// hopState is one store-and-forward stage of a lane: the queue of chunks
// awaiting the hop, the in-flight flow, and the flow-completion and watchdog
// callbacks. The callbacks are bound to the hopState when it is created and
// survive lane reuse, so pumping a chunk schedules no new closures; the
// watchdog event is rearmed in place per dispatch.
type hopState struct {
	l *lane
	i int

	queue []*chunk
	qHead int
	inUse bool
	flow  *netsim.Flow

	// c / started are the chunk context of the in-flight dispatch (a hop
	// carries at most one chunk at a time).
	c       *chunk
	started simtime.Time

	// src / dst are the hop's endpoints; wan and egressIdx (the source
	// site's dense index) are precomputed at lane build so the per-chunk
	// completion path does no site lookups.
	src, dst  *netsim.Node
	wan       bool
	egressIdx int

	onFlowDone func(*netsim.Flow)
	watchdogFn func()
	watchdogEv *simtime.Event
}

// qLen returns the number of chunks queued at the hop.
func (h *hopState) qLen() int { return len(h.queue) - h.qHead }

// push appends a chunk to the hop's queue.
func (h *hopState) push(c *chunk) { h.queue = append(h.queue, c) }

// popFront removes and returns the oldest queued chunk, recycling the
// queue's backing array whenever it empties.
func (h *hopState) popFront() *chunk {
	c := h.queue[h.qHead]
	h.queue[h.qHead] = nil
	h.qHead++
	if h.qHead == len(h.queue) {
		h.queue = h.queue[:0]
		h.qHead = 0
	}
	return c
}

// reset clears the hop's per-run state for reuse by a new lane assignment.
func (h *hopState) reset(src, dst *netsim.Node, egressIdx int) {
	h.queue = h.queue[:0]
	h.qHead = 0
	h.inUse = false
	h.flow = nil
	h.c = nil
	h.src, h.dst = src, dst
	h.wan = src.Site != dst.Site
	h.egressIdx = egressIdx
}

// lane is a chain of nodes carrying chunks from the source site to the
// destination site, possibly through intermediate datacenters. Each hop is a
// store-and-forward stage with its own one-chunk-deep pipeline, so hop i of
// chunk k+1 overlaps hop i+1 of chunk k. Lanes are pooled on the Manager;
// acquireLane rebinds a recycled lane to its new transfer.
type lane struct {
	id      int
	nodes   []*netsim.Node
	hops    []*hopState // len >= nhops; extra entries are past capacity kept warm
	nhops   int
	dead    bool
	drain   bool
	ewmaMBs float64 // end-to-end chunk throughput estimate
	t       *transferRun
}

// hopsInUse returns the active hop slice.
func (l *lane) hopsInUse() []*hopState { return l.hops[:l.nhops] }

// free reports whether the lane can start a new chunk now: its first hop is
// idle and nothing waits for it. Without the inUse check a lane with a chunk
// in flight would keep accepting work while sibling lanes idle.
func (l *lane) free() bool {
	h := l.hops[0]
	return !l.dead && !l.drain && !h.inUse && h.qLen() == 0
}

// busy reports whether any hop has queued or in-flight work.
func (l *lane) busy() bool {
	for _, h := range l.hopsInUse() {
		if h.inUse || h.qLen() > 0 {
			return true
		}
	}
	return false
}

// healthy reports whether every node on the lane is up.
func (l *lane) healthy() bool {
	if l.dead {
		return false
	}
	for _, n := range l.nodes {
		if n.Failed() {
			return false
		}
	}
	return true
}

// accept enqueues a chunk at the first hop and pumps the pipeline.
func (l *lane) accept(c *chunk) {
	l.hops[0].push(c)
	l.pump(0)
}

// pump starts the next flow at hop i if the stage is idle and work waits.
func (l *lane) pump(i int) {
	h := l.hops[i]
	if l.dead || h.inUse || h.qLen() == 0 {
		return
	}
	c := h.popFront()
	h.inUse = true
	t := l.t
	cap := 0.0
	if t.req.Intr > 0 {
		cap = t.req.Intr * h.src.Class.NICMBps
	}
	h.c = c
	h.started = t.m.sched.Now()
	t.activeFlows++
	h.flow = t.m.net.StartFlow(h.src, h.dst, c.size, netsim.FlowOpts{CapMBps: cap, JobID: t.req.JobID}, h.onFlowDone)
	// Watchdog: a flow stalled far beyond its worst-case expectation (a
	// failed or collapsed node) is cancelled and its chunk requeued.
	d := t.timeoutFor(c)
	if h.watchdogEv == nil {
		h.watchdogEv = t.m.sched.After(d, h.watchdogFn)
	} else {
		t.m.sched.Reschedule(h.watchdogEv, t.m.sched.Now()+d)
	}
}

// flowDone is the hop's flow-completion callback: it retires the flow,
// advances the pipeline (or requeues on error), and hands the flow object
// back to the network pool.
func (h *hopState) flowDone(f *netsim.Flow) {
	l := h.l
	t := l.t
	t.m.sched.Cancel(h.watchdogEv)
	c := h.c
	h.inUse = false
	h.flow = nil
	h.c = nil
	if f.Err() != nil {
		// Node failure or cancellation: hand the chunk back for
		// retransmission through another lane.
		t.requeue(c, l)
	} else {
		dur := (t.m.sched.Now() - h.started).Seconds()
		if h.wan {
			if dur > 0 {
				t.m.observe(h.src.Site, h.dst.Site, float64(c.size)/1e6/dur)
			}
			t.recordEgress(h.egressIdx, c.size)
		}
		t.stats.HopFlows++
		if h.i+1 < l.nhops {
			l.hops[h.i+1].push(c)
			l.pump(h.i + 1)
		} else {
			l.deliver(c, h.started)
		}
	}
	if !t.finished {
		l.pump(h.i)
		if h.i == 0 {
			t.fill()
		}
	}
	t.m.net.ReleaseFlow(f)
	t.flowRetired()
}

// watchdogFire cancels the hop's in-flight flow when it stalled past the
// deadline; the cancellation error path requeues the chunk.
func (h *hopState) watchdogFire() {
	fl := h.flow
	if fl != nil && !fl.Finished() {
		t := h.l.t
		t.stats.Timeouts++
		t.m.net.CancelFlow(fl)
	}
}

// deliver runs destination-side processing: the acknowledgement travels back
// to the coordinator (half an RTT), the receiver deduplicates on hash, and
// the transfer completes when every chunk has been acknowledged once.
func (l *lane) deliver(c *chunk, started simtime.Time) {
	t := l.t
	dur := (t.m.sched.Now() - started).Seconds()
	if dur > 0 {
		// EWMA of end-to-end chunk throughput, the lane health signal.
		mbps := float64(c.size) / 1e6 / dur
		if l.ewmaMBs == 0 {
			l.ewmaMBs = mbps
		} else {
			l.ewmaMBs = 0.7*l.ewmaMBs + 0.3*mbps
		}
	}
	rtt, _ := t.m.net.Topology().RTT(t.req.From, t.req.To)
	t.scheduleAck(c, rtt/2)
}

// abort kills all in-flight flows of the lane and marks it dead; queued
// chunks return to the dispatcher.
func (l *lane) abort() {
	if l.dead {
		return
	}
	l.dead = true
	for _, h := range l.hopsInUse() {
		if f := h.flow; f != nil && !f.Finished() {
			l.t.m.net.CancelFlow(f)
		}
		h.flow = nil
	}
	for _, h := range l.hopsInUse() {
		for k := h.qHead; k < len(h.queue); k++ {
			l.t.requeue(h.queue[k], nil)
			h.queue[k] = nil
		}
		h.queue = h.queue[:0]
		h.qHead = 0
	}
}

// ackEvent carries one chunk acknowledgement from the destination back to
// the coordinator after half an RTT. Events are pooled per run; the callback
// is bound once, and the simtime event is rearmed in place per use.
type ackEvent struct {
	t  *transferRun
	c  *chunk
	ev *simtime.Event
	fn func()
}

// fire delivers the acknowledgement and returns the event to the run's pool.
func (ae *ackEvent) fire() {
	t := ae.t
	c := ae.c
	ae.c = nil
	t.ackFree = append(t.ackFree, ae)
	t.outstandingAcks--
	t.acked(c)
	t.maybeFree()
}
