package obs

import (
	"fmt"
	"sync"
	"time"
)

// Phase identifies one step of the scheduler decision loop or transfer
// lifecycle. The enumeration replaces the free-form note conventions of
// trace.Event with a closed, typed vocabulary: window-close → estimate →
// model-size → route → dispatch → chunks → merge, plus the lifecycle spans
// (transfer, window) and resilience events (checkpoint, failover).
type Phase uint8

// The phases, in decision-loop order.
const (
	PhaseWindowClose Phase = iota
	PhaseEstimate
	PhaseModelSize
	PhaseRoute
	PhaseDispatch
	PhaseChunk
	PhaseMerge
	PhaseTransfer
	PhaseWindow
	PhaseCheckpoint
	PhaseFailover
	PhaseReplan
	phaseCount
)

var phaseNames = [phaseCount]string{
	"window_close", "estimate", "model_size", "route", "dispatch",
	"chunk", "merge", "transfer", "window", "checkpoint", "failover",
	"replan",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Span is one timeline record on the simulated clock. Instantaneous decision
// steps carry Dur 0 (the simulation does not advance virtual time inside a
// synchronous scheduling decision); lifecycle spans (transfer, window) carry
// real virtual durations. ID correlates related spans: the window start for
// window-scoped records, the transfer ID for transfer-scoped ones.
type Span struct {
	Phase Phase         `json:"phase"`
	Site  string        `json:"site,omitempty"`
	Peer  string        `json:"peer,omitempty"`
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
	Bytes int64         `json:"bytes,omitempty"`
	Value float64       `json:"value,omitempty"`
	ID    uint64        `json:"id,omitempty"`
}

// Timeline is the bounded flight recorder: a ring of the most recent spans,
// cheap enough to leave running for a whole job and snapshot into the final
// Report. A nil *Timeline is a no-op recorder. Recording is serialized by a
// mutex — spans land per window and per transfer, not per event, so the lock
// is far off any hot path — which makes one Timeline safe to share between
// parallel simulations.
type Timeline struct {
	mu      sync.Mutex
	cap     int
	spans   []Span
	next    int
	dropped uint64
}

// NewTimeline returns a Timeline retaining up to capacity spans.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		panic("obs: timeline capacity must be positive")
	}
	return &Timeline{cap: capacity, spans: make([]Span, 0, capacity)}
}

// Record appends a span, evicting the oldest when full. No-op on nil.
func (t *Timeline) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.next] = s
		t.next = (t.next + 1) % t.cap
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of retained spans.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were evicted.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the retained spans oldest-first. Nil Timeline → nil.
func (t *Timeline) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	if len(t.spans) == t.cap {
		out = append(out, t.spans[t.next:]...)
		out = append(out, t.spans[:t.next]...)
	} else {
		out = append(out, t.spans...)
	}
	return out
}

// ---- typed instrumentation API ---------------------------------------------
//
// The constructors below are the instrumentation surface the engine programs
// against: each names one decision-loop phase and takes exactly the fields
// that phase produces, so call sites read as documentation and the span
// vocabulary cannot drift per-caller. All are nil-safe.

// WindowClose marks a source site closing the window that starts at id.
func (t *Timeline) WindowClose(at time.Duration, site string, events int, id uint64) {
	t.Record(Span{Phase: PhaseWindowClose, Site: site, Start: at, Value: float64(events), ID: id})
}

// EstimateUsed marks the scheduler consulting the monitor's estimate (MB/s)
// for sizing a transfer out of site toward peer.
func (t *Timeline) EstimateUsed(at time.Duration, site, peer string, mbps float64, id uint64) {
	t.Record(Span{Phase: PhaseEstimate, Site: site, Peer: peer, Start: at, Value: mbps, ID: id})
}

// ModelSize marks the cost/time model choosing n nodes for a bytes-sized
// transfer.
func (t *Timeline) ModelSize(at time.Duration, site, peer string, bytes int64, n int, id uint64) {
	t.Record(Span{Phase: PhaseModelSize, Site: site, Peer: peer, Start: at, Bytes: bytes, Value: float64(n), ID: id})
}

// Route marks a transfer's lane set being planned; lanes is the resulting
// lane count.
func (t *Timeline) Route(at time.Duration, site, peer string, lanes int, id uint64) {
	t.Record(Span{Phase: PhaseRoute, Site: site, Peer: peer, Start: at, Value: float64(lanes), ID: id})
}

// Dispatch marks a partial leaving the source toward the sink.
func (t *Timeline) Dispatch(at time.Duration, site, peer string, bytes int64, id uint64) {
	t.Record(Span{Phase: PhaseDispatch, Site: site, Peer: peer, Start: at, Bytes: bytes, ID: id})
}

// Chunk marks one chunk acknowledgement of transfer id.
func (t *Timeline) Chunk(at time.Duration, site, peer string, bytes int64, id uint64) {
	t.Record(Span{Phase: PhaseChunk, Site: site, Peer: peer, Start: at, Bytes: bytes, ID: id})
}

// Merge marks a partial being merged into the sink's window state.
func (t *Timeline) Merge(at time.Duration, site string, bytes int64, id uint64) {
	t.Record(Span{Phase: PhaseMerge, Site: site, Start: at, Bytes: bytes, ID: id})
}

// TransferSpan records a completed transfer's lifecycle from dispatch to
// last acknowledgement.
func (t *Timeline) TransferSpan(start, end time.Duration, site, peer string, bytes int64, id uint64) {
	t.Record(Span{Phase: PhaseTransfer, Site: site, Peer: peer, Start: start, Dur: end - start, Bytes: bytes, ID: id})
}

// WindowSpan records a window's end-to-end life at the sink: from window
// close to the arrival of its last partial. value is the latency in seconds.
func (t *Timeline) WindowSpan(start, end time.Duration, site string, id uint64) {
	t.Record(Span{Phase: PhaseWindow, Site: site, Start: start, Dur: end - start, Value: (end - start).Seconds(), ID: id})
}

// CheckpointMark records a coordinated checkpoint of bytes encoded state.
func (t *Timeline) CheckpointMark(at time.Duration, site string, bytes int64, seq uint64) {
	t.Record(Span{Phase: PhaseCheckpoint, Site: site, Start: at, Bytes: bytes, ID: seq})
}

// FailoverMark records a sink failover from site to peer.
func (t *Timeline) FailoverMark(at time.Duration, site, peer string) {
	t.Record(Span{Phase: PhaseFailover, Site: site, Peer: peer, Start: at})
}

// Replan marks transfer id's lane set being re-planned mid-flight; lanes is
// the new lane count.
func (t *Timeline) Replan(at time.Duration, site, peer string, lanes int, id uint64) {
	t.Record(Span{Phase: PhaseReplan, Site: site, Peer: peer, Start: at, Value: float64(lanes), ID: id})
}
