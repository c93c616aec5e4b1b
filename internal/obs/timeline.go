package obs

import (
	"fmt"
	"sync"
	"time"
)

// Phase identifies one step of the scheduler decision loop or transfer
// lifecycle: window-close → estimate → model-size → route → dispatch →
// chunks → merge, plus the lifecycle spans (transfer, window) and resilience
// events (checkpoint, failover). Each is the span of one event kind.
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
// cheap enough to leave running for a whole daemon's life. A nil *Timeline
// is a no-op recorder. Recording is serialized by a
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

// observe records the span an event makes, if it makes one. No-op on nil.
func (t *Timeline) observe(ev Event) {
	if t == nil {
		return
	}
	s := Span{Site: ev.Site, Peer: ev.Peer, Start: ev.At, Bytes: ev.Bytes, ID: ev.ID}
	switch ev.Kind {
	case EvWindowClose:
		s.Phase, s.Value = PhaseWindowClose, ev.Value
	case EvEstimate:
		s.Phase, s.Value = PhaseEstimate, ev.Value
	case EvModelSize:
		s.Phase, s.Value = PhaseModelSize, float64(ev.Lanes)
	case EvRoute:
		s.Phase, s.Value = PhaseRoute, float64(ev.Lanes)
	case EvDispatch:
		s.Phase = PhaseDispatch
	case EvChunkAck:
		s.Phase = PhaseChunk
	case EvMerge:
		s.Phase = PhaseMerge
	case EvTransferDone:
		s.Phase, s.Start, s.Dur = PhaseTransfer, ev.At-ev.Dur, ev.Dur
	case EvWindowDone:
		s.Phase, s.Start, s.Dur, s.Value = PhaseWindow, ev.At-ev.Dur, ev.Dur, ev.Dur.Seconds()
	case EvCheckpoint:
		s.Phase = PhaseCheckpoint
	case EvFailover:
		s.Phase = PhaseFailover
	case EvReplan:
		s.Phase, s.Value = PhaseReplan, float64(ev.Lanes)
	default:
		return
	}
	t.Record(s)
}
