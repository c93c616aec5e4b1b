// Package trace records structured timelines of a SAGE run: transfers,
// chunk acknowledgements, replans, window completions, injections. Traces
// are ring-buffered in memory, exportable as JSON Lines for external
// analysis, and summarizable into per-kind counts and rates — the raw
// material for debugging a scheduler decision after the fact.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
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

// Event is one timeline record. Fields beyond Kind and At are free-form but
// conventional: Site/Peer name locations, Bytes sizes, Value carries a
// kind-specific number (duration seconds, throughput, ...).
//
// Emission sites should build events with the typed New* constructors, which
// pin those conventions per kind; constructing literals directly when
// emitting is deprecated (decoding into Event is of course fine).
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

// WithJob returns a copy of the event attributed to the given job, for
// chaining onto the typed constructors: Record(NewReplan(...).WithJob(id)).
func (e Event) WithJob(job int) Event {
	e.Job = job
	return e
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

// KindSummary aggregates one event kind.
type KindSummary struct {
	Kind  Kind
	Count int
	Bytes int64
	// MeanValue averages the kind-specific value over its events.
	MeanValue float64
}

// Summary aggregates the retained events per kind, sorted by kind.
func (r *Recorder) Summary() []KindSummary {
	acc := map[Kind]*KindSummary{}
	for _, e := range r.Events() {
		s := acc[e.Kind]
		if s == nil {
			s = &KindSummary{Kind: e.Kind}
			acc[e.Kind] = s
		}
		s.Count++
		s.Bytes += e.Bytes
		s.MeanValue += (e.Value - s.MeanValue) / float64(s.Count)
	}
	out := make([]KindSummary, 0, len(acc))
	for _, s := range acc {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// String renders a compact multi-line summary.
func (r *Recorder) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events (%d dropped)\n", r.Len(), r.Dropped())
	for _, s := range r.Summary() {
		fmt.Fprintf(&b, "  %-16s %6d events  %12d bytes  mean %.3f\n",
			s.Kind, s.Count, s.Bytes, s.MeanValue)
	}
	return b.String()
}
