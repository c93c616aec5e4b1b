package simtime

import (
	"fmt"
	"sync/atomic"
)

// Sharded layers conservative parallel execution over a sequential Scheduler
// without giving up its determinism guarantee. Work is split into two-phase
// events: a *stage* phase that touches only shard-local state, and a *commit*
// phase that may touch anything. Commits always run on the scheduler
// goroutine in exact (time, sequence) order — the same order a sequential
// scheduler would use — while stages of different shards run concurrently,
// batched up to a conservative lookahead horizon.
//
// The correctness argument is the classic conservative-PDES one: the
// lookahead is the minimum latency of any cross-shard interaction (for SAGE,
// the minimum WAN link RTT), so no event at time t can affect another shard's
// state before t+lookahead. Any stage scheduled within [t, t+lookahead) can
// therefore run as soon as the clock reaches t, concurrently with other
// shards' stages in the same horizon, and observe exactly the state it would
// have observed sequentially. Because stages are pure with respect to
// cross-shard and global state, and commits replay in unchanged sequential
// order, every observable output (trace, report, RNG draws) is byte-identical
// for any shard count — including 1.
//
// Contract for callers:
//   - stage functions read and write only state owned by their shard (state
//     mutated exclusively by same-shard stages or between rounds on the
//     scheduler goroutine);
//   - commit functions run on the scheduler goroutine and may touch shared
//     state freely;
//   - At must be called from the scheduler goroutine (never from inside a
//     stage function).
//
// A Sharded with one shard degenerates to plain Scheduler.At calls with
// stage and commit fused, so the sequential path pays nothing.
//
// A shard is a unit of state ownership, not a thread: a round's shard runs
// are claimed one at a time by at most Workers goroutines, the scheduler
// goroutine among them. With more shards than workers, a worker whose core
// is taken away mid-round holds up only the run it has claimed, and the
// others take the rest.
type Sharded struct {
	s         *Scheduler
	lookahead Time
	workers   int
	queues    []eventQueue // one pending-stage queue per shard
	seq       uint64       // global staging order for ties inside one shard
	rounds    uint64
	staged    uint64
}

// NewShardedWorkers wraps a Scheduler with a sharded executor that runs at
// most workers stages at once. shards < 1 is treated as 1 (fully
// sequential); workers is clamped to [1, shards]; lookahead < 0 is treated
// as 0 (stages batch only with exactly-simultaneous events).
func NewShardedWorkers(s *Scheduler, shards, workers int, lookahead Time) *Sharded {
	shards = max(shards, 1)
	workers = min(max(workers, 1), shards)
	if lookahead < 0 {
		lookahead = 0
	}
	return &Sharded{s: s, lookahead: lookahead, workers: workers, queues: make([]eventQueue, shards)}
}

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.queues) }

// Workers returns how many stages may run at once.
func (sh *Sharded) Workers() int { return sh.workers }

// Rounds returns the number of parallel staging rounds executed — an
// instrumentation hook for tests and the scaling experiment.
func (sh *Sharded) Rounds() uint64 { return sh.rounds }

// Staged returns the number of stage functions executed through rounds.
func (sh *Sharded) Staged() uint64 { return sh.staged }

// At schedules a two-phase event on the given shard at absolute virtual
// time t. The commit fires on the underlying scheduler in normal (time,
// sequence) order; the stage runs at the latest immediately before its
// commit, at the earliest batched with other shards' stages once the clock
// reaches t's staging round.
func (sh *Sharded) At(shard int, t Time, stage, commit func()) {
	if shard < 0 || shard >= len(sh.queues) {
		panic(fmt.Sprintf("simtime: shard %d out of range [0,%d)", shard, len(sh.queues)))
	}
	if len(sh.queues) == 1 {
		sh.s.At(t, func() { stage(); commit() })
		return
	}
	// The stage half is an Event of the shard's queue, ordered by the
	// staging sequence; staging clears its fn.
	task := &Event{at: t, seq: sh.seq, fn: stage}
	sh.seq++
	sh.queues[shard].push(task)
	sh.s.At(t, func() {
		if task.fn != nil {
			sh.stageThrough(sh.saturatingHorizon())
		}
		commit()
	})
}

// saturatingHorizon returns now+lookahead, clamped against overflow.
func (sh *Sharded) saturatingHorizon() Time {
	h := sh.s.Now() + sh.lookahead
	if h < sh.s.Now() {
		return Forever
	}
	return h
}

// stagedRun is one shard's ordered batch for a round.
type stagedRun struct {
	shard int
	tasks []*Event
}

// stagePanic captures a panic raised inside a stage function so it can be
// re-raised deterministically on the scheduler goroutine.
type stagePanic struct {
	shard int
	seq   uint64
	val   any
}

// stageThrough pops every pending stage with at <= horizon and runs them:
// tasks of one shard sequentially in (time, seq) order, different shards
// concurrently. The scheduler goroutine and up to Workers-1 helpers each
// claim the next unclaimed shard run until none is left, so a helper that
// has not got a core yet costs nothing: the runs it would have taken are
// claimed by whoever is running. It returns after a full barrier (every
// popped stage has finished), so commits that follow observe completed
// staging. Panics inside stages are re-raised here, on the scheduler
// goroutine, picking the lowest (shard, seq) offender so the failure is
// independent of goroutine timing.
func (sh *Sharded) stageThrough(horizon Time) {
	var runs []stagedRun
	for i := range sh.queues {
		q := &sh.queues[i]
		var tasks []*Event
		for len(*q) > 0 && (*q)[0].at <= horizon {
			tasks = append(tasks, q.pop())
		}
		if len(tasks) > 0 {
			runs = append(runs, stagedRun{shard: i, tasks: tasks})
		}
	}
	if len(runs) == 0 {
		return
	}
	sh.rounds++
	for _, r := range runs {
		sh.staged += uint64(len(r.tasks))
	}
	if len(runs) == 1 {
		// Only one shard has work in this horizon: run inline, panics
		// propagate naturally.
		for _, t := range runs[0].tasks {
			t.fn()
			t.fn = nil
		}
		return
	}
	panics := make([]*stagePanic, len(runs))
	var next, done atomic.Int64
	finished := make(chan struct{})
	work := func() {
		for {
			ri := int(next.Add(1)) - 1
			if ri >= len(runs) {
				return
			}
			r := runs[ri]
			for _, t := range r.tasks {
				if !runStage(t, r.shard, &panics[ri]) {
					break // abandon the rest of a panicked shard's run
				}
			}
			if int(done.Add(1)) == len(runs) {
				close(finished)
			}
		}
	}
	for range min(sh.workers, len(runs)) - 1 {
		go work()
	}
	work()
	<-finished
	var first *stagePanic
	for _, p := range panics {
		if p != nil && (first == nil || p.seq < first.seq) {
			first = p
		}
	}
	if first != nil {
		panic(fmt.Sprintf("simtime: stage on shard %d (staging seq %d) panicked: %v",
			first.shard, first.seq, first.val))
	}
	for _, r := range runs {
		for _, t := range r.tasks {
			t.fn = nil
		}
	}
}

// runStage executes one stage, converting a panic into a stagePanic record.
// It reports whether the stage completed normally.
func runStage(t *Event, shard int, out **stagePanic) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			*out = &stagePanic{shard: shard, seq: t.seq, val: v}
		}
	}()
	t.fn()
	return true
}
