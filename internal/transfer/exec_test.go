package transfer

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"sage/internal/simtime"
)

// TestChunkHashMatchesFNV pins the hand-rolled chunkHash arithmetic against
// hash/fnv over the same 16-byte big-endian (transferID, index) encoding the
// pre-rewrite executor hashed.
func TestChunkHashMatchesFNV(t *testing.T) {
	ids := []uint64{0, 1, 7, 1 << 20, 1<<63 - 1, ^uint64(0)}
	idxs := []int{0, 1, 63, 64, 9999, 1 << 30}
	for _, id := range ids {
		for _, idx := range idxs {
			var buf [16]byte
			binary.BigEndian.PutUint64(buf[:8], id)
			binary.BigEndian.PutUint64(buf[8:], uint64(idx))
			h := fnv.New64a()
			h.Write(buf[:])
			if want, got := h.Sum64(), chunkHash(id, idx); got != want {
				t.Fatalf("chunkHash(%d, %d) = %#x, want %#x", id, idx, got, want)
			}
		}
	}
}

// TestAckDedupDoubleDelivery injects a duplicate acknowledgement straight
// into the coordinator (the receiver-side path a retransmitted chunk takes)
// and checks the bitset dedup: the duplicate is counted but contributes no
// bytes, and completion still requires every distinct chunk exactly once.
func TestAckDedupDoubleDelivery(t *testing.T) {
	r := newRig(t, false)
	var res *Result
	h, err := r.mgr.Transfer(Request{
		From: "A", To: "D", Size: 16 << 20, ChunkBytes: 8 << 20,
		Strategy: Direct, Intr: 1,
	}, func(x Result) { res = &x })
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	run := h.run
	if len(run.slab) != 2 {
		t.Fatalf("chunks = %d, want 2", len(run.slab))
	}
	run.acked(&run.slab[0])
	run.acked(&run.slab[0]) // duplicate delivery of the same chunk
	if res != nil {
		t.Fatal("transfer completed before every distinct chunk was acked")
	}
	run.acked(&run.slab[1])
	if res == nil {
		t.Fatal("transfer did not complete after all chunks acked")
	}
	if res.Acks != 3 || res.Duplicates != 1 {
		t.Fatalf("acks = %d dups = %d, want 3 and 1", res.Acks, res.Duplicates)
	}
	if res.Bytes != 16<<20 {
		t.Fatalf("bytes = %d: duplicate ack double-counted", res.Bytes)
	}
}

// TestRetransmitStormDedup churns the source pool (kill/restore every 3s)
// under an EnvAware transfer and checks the reliability invariants: every
// byte arrives, every acknowledgement is either a first delivery or a counted
// duplicate, aborted chunks were actually retransmitted, and the final ledger
// holds each chunk index exactly once.
func TestRetransmitStormDedup(t *testing.T) {
	r := newRig(t, true)
	pool := r.mgr.Pool("A")
	flip := 0
	tick := r.sched.NewTicker(3*time.Second, func(simtime.Time) {
		n := pool[flip%2]
		if n.Failed() {
			r.net.RestoreNode(n)
		} else {
			r.net.KillNode(n)
		}
		flip++
	})
	defer tick.Stop()

	const size = 50 << 20
	var res *Result
	var h *Handle
	var err error
	h, err = r.mgr.Transfer(Request{
		From: "A", To: "D", Size: size, ChunkBytes: 1 << 20,
		Strategy: EnvAware, Lanes: 4, Intr: 1,
	}, func(x Result) { res = &x })
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	for i := 0; res == nil && i < 30; i++ {
		r.sched.RunFor(time.Minute)
	}
	if res == nil {
		t.Fatal("transfer did not complete under churn")
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, int64(size))
	}
	if res.Chunks != 50 {
		t.Fatalf("chunks = %d, want 50", res.Chunks)
	}
	if res.Acks != res.Chunks+res.Duplicates {
		t.Fatalf("acks = %d, want chunks(%d) + duplicates(%d)", res.Acks, res.Chunks, res.Duplicates)
	}
	if res.Retransmits < 1 {
		t.Fatalf("retransmits = %d: node churn produced no retransmissions", res.Retransmits)
	}
	led := h.Ledger()
	if len(led.Acked) != res.Chunks {
		t.Fatalf("ledger holds %d chunks, want %d", len(led.Acked), res.Chunks)
	}
	for i, idx := range led.Acked {
		if idx != i {
			t.Fatalf("ledger[%d] = %d: chunk missing or acknowledged twice", i, idx)
		}
	}
}

// TestRecycleReusesRun pins the run pool contract: Recycle hands the
// quiescent run back, the next Transfer gets the same object, and recycling
// an unfinished transfer is a no-op that does not disturb it.
func TestRecycleReusesRun(t *testing.T) {
	r := newRig(t, false)
	req := Request{From: "A", To: "D", Size: 24 << 20, Strategy: Direct, Intr: 1}

	var res *Result
	h1, err := r.mgr.Transfer(req, func(x Result) { res = &x })
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	r.sched.RunFor(time.Hour)
	if res == nil {
		t.Fatal("first transfer did not complete")
	}
	run1 := h1.run
	r.mgr.Recycle(h1)
	if !run1.freed || len(r.mgr.runFree) != 1 {
		t.Fatalf("run not pooled after Recycle: freed=%v pool=%d", run1.freed, len(r.mgr.runFree))
	}
	r.mgr.Recycle(h1) // double recycle: no-op
	if len(r.mgr.runFree) != 1 {
		t.Fatalf("double Recycle pooled the run twice (pool=%d)", len(r.mgr.runFree))
	}

	res = nil
	h2, err := r.mgr.Transfer(req, func(x Result) { res = &x })
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if h2.run != run1 {
		t.Fatalf("pooled run not reused: got %p want %p", h2.run, run1)
	}
	r.mgr.Recycle(h2) // unfinished: must be refused
	if run1.freed || run1.recycleReq || len(r.mgr.runFree) != 0 {
		t.Fatalf("Recycle of an unfinished transfer was not a no-op: freed=%v req=%v pool=%d",
			run1.freed, run1.recycleReq, len(r.mgr.runFree))
	}
	r.sched.RunFor(time.Hour)
	if res == nil || res.Bytes != 24<<20 {
		t.Fatalf("reused run did not complete cleanly: %+v", res)
	}
	r.mgr.Recycle(h2)
	if !run1.freed {
		t.Fatal("finished reused run refused Recycle")
	}
}

// TestTransferZeroAllocs holds the executor to its headline budget: with the
// manager's pools warm, a complete transfer — Transfer, dispatch, hop flows,
// acks, completion, Recycle — performs zero heap allocations, for the simple
// strategy and for the replanning one (short replanInterval so several replan
// cycles run inside the measured window).
func TestTransferZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"Direct", Request{From: "A", To: "D", Size: 16 << 20,
			ChunkBytes: 1 << 20, Strategy: Direct, Intr: 1}},
		{"MultipathDynamic", Request{From: "A", To: "D", Size: 64 << 20,
			ChunkBytes: 1 << 20, Strategy: MultipathDynamic, Lanes: 4, NodeBudget: 8, Intr: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newZeroAllocRig()
			cycle := func() {
				r.done = false
				h, err := r.mgr.Transfer(tc.req, r.onDone)
				if err != nil {
					t.Fatalf("Transfer: %v", err)
				}
				for !r.done {
					r.sched.RunFor(time.Minute)
				}
				r.mgr.Recycle(h)
			}
			// Warm pools (slabs, lanes, events, flow objects) and the
			// monitor-side rings, which keep filling for a few simulated
			// minutes after the first transfer.
			for i := 0; i < 8; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("steady-state transfer allocates %.1f objects per cycle, want 0", allocs)
			}
		})
	}
}

// newZeroAllocRig is the bench rig with a 2s replan interval, so the dynamic
// strategies exercise the replan path inside the zero-alloc window. It probes
// for three simulated hours first: the monitor's per-link rings grow as
// samples arrive, and one that doubles inside the window is the monitor's
// allocation, not the executor's.
func newZeroAllocRig() *benchRig {
	r := newBenchRig()
	r.mgr.opt.replanInterval = 2 * time.Second
	r.sched.RunFor(3 * time.Hour)
	return r
}

// TestConcurrentManagersRace drives four fully independent rigs from four
// goroutines. Managers share no state by design; under -race this catches any
// pooling shortcut that accidentally reached for a package global.
func TestConcurrentManagersRace(t *testing.T) {
	const workers = 4
	rigs := make([]*rig, workers)
	for i := range rigs {
		rigs[i] = newRig(t, true)
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := range rigs {
		r := rigs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{From: "A", To: "D", Size: 24 << 20, ChunkBytes: 1 << 20,
				Strategy: EnvAware, Lanes: 4, Intr: 1}
			for iter := 0; iter < 3; iter++ {
				done := false
				h, err := r.mgr.Transfer(req, func(Result) { done = true })
				if err != nil {
					errs <- err
					return
				}
				for i := 0; !done && i < 60; i++ {
					r.sched.RunFor(time.Minute)
				}
				if !done {
					errs <- errTimeout
					return
				}
				r.mgr.Recycle(h)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}
}

var errTimeout = errTimeoutT{}

type errTimeoutT struct{}

func (errTimeoutT) Error() string { return "transfer did not complete" }
