package simtime

import (
	"slices"
	"testing"
	"time"
)

// orderModel is the scheduler written the slow, obvious way: the queue is a
// slice searched for its (at, seq) minimum, and cancelled entries stay in it,
// counted by Pending, until they reach the front.
type orderModel struct {
	now   Time
	seq   uint64
	queue []*modelEvent
	fired []int
}

type modelEvent struct {
	id       int
	at       Time
	seq      uint64
	queued   bool
	canceled bool
}

// first returns the index of the earliest queued entry, or -1.
func (m *orderModel) first() int {
	best := -1
	for i, e := range m.queue {
		if best < 0 || e.at < m.queue[best].at || (e.at == m.queue[best].at && e.seq < m.queue[best].seq) {
			best = i
		}
	}
	return best
}

func (m *orderModel) remove(i int) *modelEvent {
	e := m.queue[i]
	m.queue = slices.Delete(m.queue, i, i+1)
	e.queued = false
	return e
}

// arm queues e at t with a fresh sequence number, in place if it is queued.
func (m *orderModel) arm(e *modelEvent, t Time) {
	e.at, e.seq, e.canceled = t, m.seq, false
	m.seq++
	if !e.queued {
		e.queued = true
		m.queue = append(m.queue, e)
	}
}

// peek drops cancelled entries from the front and returns the first live one.
func (m *orderModel) peek() *modelEvent {
	for {
		i := m.first()
		if i < 0 {
			return nil
		}
		if e := m.queue[i]; !e.canceled {
			return e
		}
		m.remove(i)
	}
}

// step fires the first live entry; fire runs what its callback does.
func (m *orderModel) step(fire func(id int)) bool {
	for {
		i := m.first()
		if i < 0 {
			return false
		}
		e := m.remove(i)
		if e.canceled {
			continue
		}
		m.now = e.at
		m.fired = append(m.fired, e.id)
		fire(e.id)
		return true
	}
}

// FuzzSchedulerOrder interprets a byte string as At / After / Reschedule /
// Cancel / Step / RunUntil calls on a Scheduler and on orderModel, and after
// every call compares the fired order, Now, NextAt, Pending and every event's
// Scheduled.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 0, 4, 4, 4, 4})
	f.Add([]byte{0, 9, 0, 3, 0, 3, 2, 0, 7, 3, 1, 4, 5, 20, 4})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 3, 1, 2, 2, 1, 5, 40, 4, 4})
	f.Add([]byte{1, 2, 1, 2, 2, 0, 2, 2, 1, 2, 3, 1, 5, 3, 5, 9, 4, 0, 30, 4})
	f.Add([]byte{0, 200, 1, 100, 0, 50, 2, 1, 0, 5, 255, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := New()
		m := &orderModel{}
		var evs []*Event
		var mevs []*modelEvent
		var fired []int
		next := func(i *int) int {
			if *i >= len(prog) {
				return 0
			}
			*i++
			return int(prog[*i-1])
		}
		// Each side numbers its events in creation order, so the two
		// numberings agree as long as the fired orders do. Every third event
		// schedules a follow-up from its callback.
		var schedule func(d time.Duration, viaAfter bool)
		schedule = func(d time.Duration, viaAfter bool) {
			id := len(evs)
			fn := func() {
				fired = append(fired, id)
				if id%3 == 0 {
					schedule(Time(id%5)*time.Millisecond, false)
				}
			}
			if viaAfter {
				evs = append(evs, s.After(d, fn))
			} else {
				evs = append(evs, s.At(s.Now()+d, fn))
			}
		}
		modelSchedule := func(d time.Duration) {
			mevs = append(mevs, &modelEvent{id: len(mevs)})
			m.arm(mevs[len(mevs)-1], m.now+max(d, 0))
		}
		fire := func(id int) {
			if id%3 == 0 {
				modelSchedule(Time(id%5) * time.Millisecond)
			}
		}
		for i := 0; i < len(prog) && len(evs) < 500; {
			op := next(&i) % 6
			arg := next(&i)
			switch op {
			case 0: // At
				d := Time(arg) * time.Millisecond
				schedule(d, false)
				modelSchedule(d)
			case 1: // After, negative delays clamp to now
				d := time.Duration(arg-8) * time.Millisecond
				schedule(d, true)
				modelSchedule(d)
			case 2: // Reschedule a pending, cancelled or fired event
				if len(evs) > 0 {
					k := arg % len(evs)
					at := s.Now() + Time(next(&i))*time.Millisecond
					s.Reschedule(evs[k], at)
					m.arm(mevs[k], at)
				}
			case 3: // Cancel
				if len(evs) > 0 {
					k := arg % len(evs)
					s.Cancel(evs[k])
					if mevs[k].queued {
						mevs[k].canceled = true
					}
				}
			case 4: // Step
				got := s.Step()
				if want := m.step(fire); got != want {
					t.Fatalf("Step = %v, model %v", got, want)
				}
			case 5: // RunUntil, possibly before now
				until := s.Now() + Time(arg-16)*time.Millisecond
				s.RunUntil(until)
				for e := m.peek(); e != nil && e.at <= until; e = m.peek() {
					m.step(fire)
				}
				m.now = max(m.now, until)
			}
			if !slices.Equal(fired, m.fired) || len(evs) != len(mevs) {
				t.Fatalf("after op %d: fired %v, model %v", op, fired, m.fired)
			}
			if s.Now() != m.now {
				t.Fatalf("after op %d: Now %v, model %v", op, s.Now(), m.now)
			}
			at, ok := s.NextAt()
			e := m.peek()
			if ok != (e != nil) || (ok && at != e.at) {
				t.Fatalf("after op %d: NextAt %v %v, model %+v", op, at, ok, e)
			}
			if s.Pending() != len(m.queue) {
				t.Fatalf("after op %d: Pending %d, model %d", op, s.Pending(), len(m.queue))
			}
			for k, ev := range evs {
				if ev.Scheduled() != (mevs[k].queued && !mevs[k].canceled) {
					t.Fatalf("after op %d: event %d Scheduled %v, model %+v", op, k, ev.Scheduled(), *mevs[k])
				}
			}
		}
	})
}
