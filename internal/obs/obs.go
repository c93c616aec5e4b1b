// Package obs is SAGE's unified observability layer: one event spine that
// every engine fact goes through once, and the recorders subscribed to it —
// a zero-allocation metrics registry, a phase-span timeline ("flight
// recorder") over the scheduler decision loop and transfer lifecycle, and
// whatever else an Observer carries (the JSONL trace, the daemon's audit
// log). Exporters render the two formats operators actually load —
// Prometheus text and Chrome trace_event JSON (Perfetto).
//
// The metrics side splits cost between a cold registration path and a free
// hot path, the same interning discipline as stream.KeyTable: instruments
// are pre-registered into vectors addressed by dense IDs, label sets resolve
// once to a handle, and every hot-path update is a single atomic operation
// on the handle's cell. The spine keeps the handles it resolved per (site,
// job) and per link, so an observed emit allocates nothing. A nil *Observer
// is the disabled layer: Emit returns at once, and engines built without one
// behave bit for bit as engines built with one.
//
// Concurrency: Emit, the Registry and its handles are safe for concurrent
// use from any number of goroutines (parallel simulations share one
// observer); the Timeline serializes recording with a mutex, which is cheap
// at its per-window/per-chunk call rate. Subscribers see events on the
// emitting goroutine and guard their own state.
package obs

import "sync"

// Observer bundles the recorders the engine's event spine feeds. A nil
// *Observer disables the layer.
type Observer struct {
	// Metrics is the shared metrics registry.
	Metrics *Registry
	// Timeline is the bounded flight recorder of phase spans.
	Timeline *Timeline
	// Subscribers receive every event after the two recorders above, in
	// order: the JSONL trace, the daemon's audit log.
	Subscribers []Subscriber

	once sync.Once
	fam  *families
}

// DefaultTimelineCap is the flight-recorder ring capacity NewObserver uses.
const DefaultTimelineCap = 1 << 15

// NewObserver returns an Observer with a fresh registry and a
// DefaultTimelineCap-span flight recorder.
func NewObserver() *Observer {
	return &Observer{Metrics: NewRegistry(), Timeline: NewTimeline(DefaultTimelineCap)}
}

// Emit delivers one engine fact to every recorder: the metric families, the
// timeline, then each subscriber. It is the layer's only gate — emitters
// never ask whether anyone listens — and small enough to inline, so a nil
// observer costs its emitters a compare.
func (o *Observer) Emit(ev Event) {
	if o != nil {
		o.emit(ev)
	}
}

func (o *Observer) emit(ev Event) {
	o.once.Do(func() { o.fam = newFamilies(o.Metrics) })
	o.fam.observe(ev)
	o.Timeline.observe(ev)
	for _, s := range o.Subscribers {
		s.Observe(ev)
	}
}
