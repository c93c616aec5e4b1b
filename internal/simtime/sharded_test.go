package simtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newSharded is a sharded executor with one worker per shard.
func newSharded(s *Scheduler, shards int, lookahead Time) *Sharded {
	return NewShardedWorkers(s, shards, shards, lookahead)
}

// shardedOrder runs the same synthetic workload on a Sharded with the given
// shard count and returns the commit-order log. The workload spreads 60
// two-phase events across 4 logical streams with interleaved, partially tied
// timestamps — the shape the engine produces for multi-source jobs.
func shardedOrder(t *testing.T, shards int) []string {
	t.Helper()
	s := New()
	sh := newSharded(s, shards, 10*time.Millisecond)
	var log []string
	// Distinct slice slots per task: stages on different shards write
	// different indices, so the hammer is race-free by construction.
	staged := make([]bool, 4*16)
	for stream := 0; stream < 4; stream++ {
		stream := stream
		for i := 1; i <= 15; i++ {
			i := i
			slot := stream*16 + i
			id := fmt.Sprintf("s%d/e%02d", stream, i)
			at := Time(i) * Time(7*time.Millisecond)
			if i%3 == 0 {
				at = Time(i) * Time(5*time.Millisecond) // collide across streams
			}
			sh.At(stream%shards, at, func() { staged[slot] = true }, func() {
				if !staged[slot] {
					t.Errorf("commit %s ran before its stage", id)
				}
				log = append(log, fmt.Sprintf("%s@%v", id, s.Now()))
			})
		}
	}
	s.Run()
	return log
}

// TestShardedCommitOrderMatchesSequential is the determinism property at the
// executor level: for any shard count the commit log is byte-identical to
// the 1-shard (fully sequential) run.
func TestShardedCommitOrderMatchesSequential(t *testing.T) {
	want := shardedOrder(t, 1)
	if len(want) != 60 {
		t.Fatalf("sequential run committed %d events, want 60", len(want))
	}
	for _, shards := range []int{2, 4, 8} {
		got := shardedOrder(t, shards)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("shards=%d commit order diverges from sequential\ngot:  %v\nwant: %v",
				shards, got, want)
		}
	}
}

// TestShardedStageOrderWithinShard verifies one shard's stages run in (time,
// seq) order even when staged in batched rounds.
func TestShardedStageOrderWithinShard(t *testing.T) {
	s := New()
	sh := newSharded(s, 2, time.Second) // huge lookahead: everything one round
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		sh.At(0, Time(i)*Time(time.Millisecond), func() { order = append(order, i) }, func() {})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("shard-0 stage order %v; want ascending", order)
		}
	}
	if sh.Rounds() != 1 {
		t.Fatalf("expected a single staging round under a covering lookahead, got %d", sh.Rounds())
	}
	if sh.Staged() != 20 {
		t.Fatalf("staged %d tasks, want 20", sh.Staged())
	}
}

// TestShardedLookaheadBounds verifies stages beyond the horizon are not
// pre-staged: a task outside now+lookahead waits for a later round.
func TestShardedLookaheadBounds(t *testing.T) {
	s := New()
	sh := newSharded(s, 2, 10*time.Millisecond)
	stagedLate := false
	sh.At(0, Time(5*time.Millisecond), func() {}, func() {
		if stagedLate {
			t.Error("task beyond the lookahead horizon was staged early")
		}
	})
	sh.At(1, Time(100*time.Millisecond), func() { stagedLate = true }, func() {})
	s.Run()
	if sh.Rounds() != 2 {
		t.Fatalf("expected 2 staging rounds, got %d", sh.Rounds())
	}
}

// TestShardedStagesRunConcurrently proves the barrier actually overlaps
// shards: two stages at the same timestamp on different shards rendezvous
// through unbuffered channels, which can only complete if both run at once.
// This works on a single-core box too — the goroutines interleave through
// channel blocking — and deadlocks (test timeout) if staging were serial.
func TestShardedStagesRunConcurrently(t *testing.T) {
	s := New()
	sh := newSharded(s, 2, 10*time.Millisecond)
	ping, pong := make(chan struct{}), make(chan struct{})
	met := false
	sh.At(0, Time(time.Millisecond), func() {
		ping <- struct{}{}
		<-pong
	}, func() {})
	sh.At(1, Time(time.Millisecond), func() {
		<-ping
		pong <- struct{}{}
		met = true
	}, func() {})
	done := make(chan struct{})
	go func() { s.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stages did not rendezvous: shards are running serially")
	}
	if !met {
		t.Fatal("rendezvous did not complete")
	}
}

// TestShardedWorkersClaimDynamically: with more shards than workers, shard
// runs are claimed one at a time rather than split up front. Shard 0's stage
// waits for the stages of shards 1–7; two workers finish the round only if
// the one not holding shard 0 claims all seven — a fixed half each would
// leave three of them behind the blocked stage and deadlock.
func TestShardedWorkersClaimDynamically(t *testing.T) {
	s := New()
	sh := NewShardedWorkers(s, 8, 2, 10*time.Millisecond)
	rest := make(chan struct{}, 7)
	sh.At(0, Time(time.Millisecond), func() {
		for i := 0; i < 7; i++ {
			<-rest
		}
	}, func() {})
	for sd := 1; sd < 8; sd++ {
		sh.At(sd, Time(time.Millisecond), func() { rest <- struct{}{} }, func() {})
	}
	done := make(chan struct{})
	go func() { s.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("round did not finish: shard runs were not claimed dynamically")
	}
	if sh.Rounds() != 1 || sh.Staged() != 8 {
		t.Fatalf("rounds %d, staged %d; want 1 and 8", sh.Rounds(), sh.Staged())
	}
}

// TestShardedWorkersCap: no more stages run at once than the executor has
// workers, and the worker count is clamped to [1, shards].
func TestShardedWorkersCap(t *testing.T) {
	s := New()
	sh := NewShardedWorkers(s, 8, 3, 10*time.Millisecond)
	if sh.Shards() != 8 || sh.Workers() != 3 {
		t.Fatalf("Shards() = %d, Workers() = %d; want 8 and 3", sh.Shards(), sh.Workers())
	}
	var running, peak atomic.Int64
	for sd := 0; sd < 8; sd++ {
		sh.At(sd, Time(time.Millisecond), func() {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
		}, func() {})
	}
	s.Run()
	if p := peak.Load(); p < 1 || p > 3 {
		t.Fatalf("%d stages ran at once, want 1..3", p)
	}
	if w := NewShardedWorkers(s, 2, 5, 0).Workers(); w != 2 {
		t.Fatalf("5 workers on 2 shards: Workers() = %d, want 2", w)
	}
	if w := NewShardedWorkers(s, 4, 0, 0).Workers(); w != 1 {
		t.Fatalf("0 workers: Workers() = %d, want 1", w)
	}
	if w := newSharded(s, 4, 0).Workers(); w != 4 {
		t.Fatalf("one worker per shard: Workers() = %d, want 4", w)
	}
}

// TestShardedPanicPropagation: a panic inside a stage surfaces on the
// scheduler goroutine with shard context, picking the lowest staging
// sequence when several shards panic in one round.
func TestShardedPanicPropagation(t *testing.T) {
	s := New()
	sh := newSharded(s, 4, 10*time.Millisecond)
	sh.At(2, Time(time.Millisecond), func() { panic("boom-a") }, func() {})
	sh.At(3, Time(time.Millisecond), func() { panic("boom-b") }, func() {})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected the stage panic to propagate")
		}
		msg := fmt.Sprint(v)
		// The first At call has staging seq 0 on shard 2: deterministic winner.
		if !strings.Contains(msg, "shard 2") || !strings.Contains(msg, "boom-a") {
			t.Fatalf("panic %q does not identify the lowest-seq offender", msg)
		}
	}()
	s.Run()
}

// TestShardedInvalidShardPanics pins the API misuse guard.
func TestShardedInvalidShardPanics(t *testing.T) {
	s := New()
	sh := newSharded(s, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range shard to panic")
		}
	}()
	sh.At(2, 0, func() {}, func() {})
}

// TestShardedRaceHammer stresses the barrier under the race detector: 8
// shards, each owning a private accumulator its stages mutate, with commits
// folding into a shared total on the scheduler goroutine. Any barrier bug
// (stage escaping its round, commit overlapping a stage) shows up as a data
// race under -race or as a wrong total.
func TestShardedRaceHammer(t *testing.T) {
	const shards, perShard = 8, 200
	s := New()
	sh := newSharded(s, shards, 3*time.Millisecond)
	local := make([]int, shards)
	total := 0
	for sd := 0; sd < shards; sd++ {
		sd := sd
		for i := 0; i < perShard; i++ {
			at := Time(i%37) * Time(time.Millisecond)
			sh.At(sd, at, func() { local[sd]++ }, func() { total += local[sd] })
		}
	}
	s.Run()
	if want := shards * perShard; int(sh.Staged()) != want {
		t.Fatalf("staged %d, want %d", sh.Staged(), want)
	}
	if total == 0 {
		t.Fatal("commits observed no staged state")
	}
}
