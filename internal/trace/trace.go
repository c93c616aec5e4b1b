// Package trace records structured timelines of a SAGE run: transfers,
// retransmits, replans, window completions and the resilience subsystem's
// failures, checkpoints and failovers. A Recorder subscribes to an
// obs.Observer's event spine; traces are ring-buffered in memory and
// exportable as JSON Lines for external analysis — the raw material for
// debugging a scheduler decision after the fact.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sage/internal/obs"
)

// Kind classifies an event.
type Kind string

// The event kinds emitted by the instrumented subsystems.
const (
	TransferStart  Kind = "transfer_start"
	TransferDone   Kind = "transfer_done"
	ChunkAck       Kind = "chunk_ack"
	Retransmit     Kind = "retransmit"
	Replan         Kind = "replan"
	WindowComplete Kind = "window_complete"
	Injection      Kind = "injection"
	ProbeSample    Kind = "probe"

	// Resilience-subsystem kinds: site failure detection, recovery,
	// checkpoint persistence and meta-reducer (sink) failover.
	SiteFail    Kind = "site_fail"
	SiteRecover Kind = "site_recover"
	Checkpoint  Kind = "checkpoint"
	Failover    Kind = "failover"
)

// Event is one timeline record. Fields beyond Kind and At are conventional
// per kind — Observe fixes them: Site/Peer name locations, Bytes sizes,
// Value carries a kind-specific number (duration seconds, a count, ...).
type Event struct {
	At    time.Duration `json:"at"`
	Kind  Kind          `json:"kind"`
	Site  string        `json:"site,omitempty"`
	Peer  string        `json:"peer,omitempty"`
	Bytes int64         `json:"bytes,omitempty"`
	Value float64       `json:"value,omitempty"`
	Note  string        `json:"note,omitempty"`
	// Job attributes the event to one job of a multi-job run. Single-job
	// runs are job 0, which omitempty keeps off the wire — their JSONL is
	// byte-identical to the pre-multi-job format.
	Job int `json:"job,omitempty"`
}

// Recorder collects events in a bounded ring. The zero value is unusable;
// construct with New. Recorder is not safe for concurrent use — SAGE
// simulations are single-threaded by design, and the harness gives each
// parallel simulation its own Recorder.
type Recorder struct {
	cap     int
	events  []Event
	next    int
	dropped uint64
}

// New returns a Recorder retaining up to capacity events.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Recorder{cap: capacity, events: make([]Event, 0, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (r *Recorder) Record(e Event) {
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % r.cap
	r.dropped++
}

// Observe implements obs.Subscriber: it records the trace event an engine
// fact makes, if it makes one. Only transfer and window events carry their
// job: the resilience records predate multi-job runs, and the wire keeps
// them as they were.
func (r *Recorder) Observe(ev obs.Event) {
	e := Event{At: ev.At, Site: ev.Site, Peer: ev.Peer}
	switch ev.Kind {
	case obs.EvTransferStart:
		e.Kind, e.Job, e.Bytes, e.Note = TransferStart, ev.Job, ev.Bytes, ev.Note
	case obs.EvTransferDone:
		e.Kind, e.Job, e.Bytes, e.Value, e.Note = TransferDone, ev.Job, ev.Bytes, ev.Dur.Seconds(), ev.Note
	case obs.EvRetransmit:
		e.Kind, e.Job, e.Bytes, e.Value = Retransmit, ev.Job, ev.Bytes, ev.Value
	case obs.EvReplan:
		e.Kind, e.Job, e.Value, e.Note = Replan, ev.Job, ev.Value, ev.Note
	case obs.EvSelfHeal:
		e.Kind, e.Job, e.Value, e.Note = Replan, ev.Job, ev.Value, "self-heal"
	case obs.EvWindowDone:
		e.Kind, e.Job, e.Value = WindowComplete, ev.Job, ev.Dur.Seconds()
		e.Note = fmt.Sprintf("[%v,%v)", time.Duration(ev.ID), ev.At-ev.Dur)
	case obs.EvSiteFail:
		e.Kind, e.Value, e.Note = SiteFail, ev.Dur.Seconds(), "declared dead"
	case obs.EvSiteRecover:
		e.Kind = SiteRecover
	case obs.EvBacklogDrained:
		e.Kind, e.Value, e.Note = SiteRecover, ev.Dur.Seconds(), "backlog drained"
	case obs.EvCheckpoint:
		e.Kind, e.Bytes, e.Value = Checkpoint, ev.Bytes, float64(ev.ID)
	case obs.EvCheckpointLost:
		e.Kind, e.Note = Checkpoint, "decode failed: "+ev.Note
	case obs.EvFailoverStall:
		e.Kind, e.Note = Failover, "no viable sink; stalling"
	case obs.EvFailover:
		e.Kind, e.Note = Failover, "meta-reducer re-elected"
	default:
		return
	}
	r.Record(e)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns how many events were evicted.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Events returns retained events oldest-first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.events))
	if len(r.events) == r.cap {
		out = append(out, r.events[r.next:]...)
		out = append(out, r.events[:r.next]...)
	} else {
		out = append(out, r.events...)
	}
	return out
}

// Filter returns retained events of one kind, oldest-first.
func (r *Recorder) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL streams the retained events as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
