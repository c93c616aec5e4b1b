// Package simtime provides a deterministic discrete-event simulation engine
// with a virtual clock. All SAGE experiments run in virtual time: a week of
// cloud measurements executes in milliseconds of wall time, and two runs with
// the same inputs produce identical event orderings.
//
// The engine is single-threaded by design. Components schedule callbacks on a
// Scheduler; the Scheduler fires them in (time, sequence) order, so ties are
// broken by scheduling order and the simulation is fully reproducible.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Forever is a time later than any event a simulation will schedule.
const Forever Time = math.MaxInt64

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	index  int // heap index; -1 when not queued
	cancel bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is still pending (not fired, not
// cancelled).
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 && !e.cancel }

// Scheduler is a discrete-event executor with a virtual clock.
// The zero value is ready to use.
type Scheduler struct {
	now    Time
	queue  eventQueue
	seq    uint64
	fired  uint64
	inStep bool
}

// New returns a Scheduler starting at virtual time zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far; useful for
// instrumentation and loop-bound assertions in tests.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (including events that
// were cancelled but not yet discarded).
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a logic error in the caller, and silently reordering
// time would corrupt every downstream measurement.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, s.now))
	}
	ev := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(ev)
	return ev
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel prevents a pending event from firing. Cancelling a nil, fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	ev.cancel = true
}

// Reschedule (re)arms ev to fire once at absolute virtual time t, as if it
// had been cancelled and freshly scheduled: the event receives a new
// sequence number, so ties against other events at t are broken by
// rescheduling order exactly as a fresh At would be. Unlike Cancel+At it
// reuses the Event and its callback without allocating and without leaving a
// cancelled ghost in the queue — the allocation-free path for hot periodic
// events (the netsim wake, tickers). The event may be pending, cancelled or
// already fired. Scheduling in the past panics, as with At.
func (s *Scheduler) Reschedule(ev *Event, t Time) {
	if ev == nil {
		panic("simtime: Reschedule of nil event")
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: rescheduling at %v before now %v", t, s.now))
	}
	ev.at = t
	ev.seq = s.seq
	s.seq++
	ev.cancel = false
	if ev.index >= 0 {
		s.queue.fix(ev.index)
	} else {
		s.queue.push(ev)
	}
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when no events remain.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		ev := s.queue.pop()
		if ev.cancel {
			continue
		}
		s.now = ev.at
		s.fired++
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled during execution are honored if they fall within the
// horizon.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.queue) > 0 {
		next := s.peek()
		if next == nil {
			break
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor runs the simulation for d of virtual time from the current clock.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

func (s *Scheduler) peek() *Event {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if ev.cancel {
			s.queue.pop()
			continue
		}
		return ev
	}
	return nil
}

// NextAt returns the timestamp of the next pending event and true, or zero
// and false when the queue is empty.
func (s *Scheduler) NextAt() (Time, bool) {
	ev := s.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Ticker invokes a callback at a fixed period until stopped. It is the
// virtual-time analogue of time.Ticker, used for monitoring probes and link
// variability updates.
type Ticker struct {
	s      *Scheduler
	period time.Duration
	fn     func(now Time)
	ev     *Event
	stop   bool
}

// NewTicker schedules fn every period, with the first firing one period from
// now. period must be positive. A Ticker allocates its callback and Event
// once and rearms the same Event each period via Reschedule.
func (s *Scheduler) NewTicker(period time.Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.ev = s.After(period, func() {
		if t.stop {
			return
		}
		t.fn(t.s.Now())
		if !t.stop {
			t.s.Reschedule(t.ev, t.s.now+t.period)
		}
	})
	return t
}

// Stop prevents any further firings.
func (t *Ticker) Stop() {
	t.stop = true
	t.s.Cancel(t.ev)
}

// eventQueue is a binary min-heap of events ordered by (time, sequence),
// which keeps each event's index current so that a queued event can be moved
// in place. It is the scheduler's queue and each shard's stage queue.
// (time, sequence) is a total order, so the pop order is fully determined.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() *Event {
	old := *q
	last := len(old) - 1
	old.swap(0, last)
	ev := old[last]
	old[last] = nil
	ev.index = -1
	*q = old[:last]
	q.down(0)
	return ev
}

// fix restores the order after the event at i changed its key.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts the event at i toward the leaves and reports whether it moved.
func (q eventQueue) down(i int) bool {
	start := i
	for {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		child := l
		if r := l + 1; r < len(q) && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
	return i > start
}
