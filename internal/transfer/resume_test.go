package transfer

import (
	"testing"
	"time"
)

// These tests cover the resumption machinery the resilience subsystem rides
// on: ledger snapshots of in-flight transfers, mid-flight aborts, and
// restarting from a ledger without re-sending acknowledged chunks.

func TestAbortThenResumeSkipsAckedChunks(t *testing.T) {
	r := newRig(t, false)
	req := Request{From: "A", To: "D", Size: 64 << 20, ChunkBytes: 4 << 20,
		Strategy: Direct, Intr: 1}
	done := false
	h, err := r.mgr.Transfer(req, func(Result) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	// Let part of the transfer through, then abort.
	r.sched.RunFor(4 * time.Second)
	led := h.Ledger()
	r.mgr.Abort(h)
	if len(led.Acked) == 0 {
		t.Fatal("nothing acked before abort; test needs a slower link or more time")
	}
	if led.AckedBytes() >= req.Size {
		t.Fatal("transfer finished before abort; test needs a shorter horizon")
	}
	r.sched.RunFor(30 * time.Second)
	if done {
		t.Fatal("aborted transfer still reported completion")
	}

	// Resume from the ledger: only the remainder crosses the wire.
	resumeReq := req
	resumeReq.Resume = &led
	var res *Result
	if _, err := r.mgr.Transfer(resumeReq, func(x Result) { res = &x }); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(60 * time.Second)
	if res == nil {
		t.Fatal("resumed transfer did not complete")
	}
	if res.SkippedBytes != led.AckedBytes() {
		t.Fatalf("skipped %d bytes, ledger had %d acked", res.SkippedBytes, led.AckedBytes())
	}
	if res.Bytes != req.Size {
		t.Fatalf("resumed transfer delivered %d bytes, want %d", res.Bytes, req.Size)
	}
}

func TestResumeValidatesLedger(t *testing.T) {
	r := newRig(t, false)
	base := Request{From: "A", To: "B", Size: 16 << 20, Strategy: Direct, Intr: 1}
	bad := base
	bad.Resume = &Ledger{TransferID: 1, From: "A", To: "C", Size: 16 << 20}
	if _, err := r.mgr.Transfer(bad, nil); err == nil {
		t.Fatal("mismatched destination accepted")
	}
	bad = base
	bad.Resume = &Ledger{TransferID: 1, From: "A", To: "B", Size: 8 << 20}
	if _, err := r.mgr.Transfer(bad, nil); err == nil {
		t.Fatal("mismatched size accepted")
	}
	bad = base
	bad.Resume = &Ledger{TransferID: 1, From: "A", To: "B", Size: 16 << 20,
		ChunkBytes: 4 << 20, Acked: []int{99}}
	if _, err := r.mgr.Transfer(bad, nil); err == nil {
		t.Fatal("out-of-range acked chunk accepted")
	}
	// A ledger that acknowledges every chunk leaves nothing to resume.
	bad = base
	bad.Resume = &Ledger{TransferID: 1, From: "A", To: "B", Size: 16 << 20,
		ChunkBytes: 4 << 20, Acked: []int{0, 1, 2, 3}}
	if _, err := r.mgr.Transfer(bad, nil); err == nil {
		t.Fatal("fully acknowledged ledger accepted")
	}
}

func TestLedgerSortedAndStable(t *testing.T) {
	r := newRig(t, false)
	h, err := r.mgr.Transfer(Request{From: "A", To: "D", Size: 32 << 20,
		ChunkBytes: 2 << 20, Strategy: ParallelStatic, Lanes: 4, Intr: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Second)
	led := h.Ledger()
	for i := 1; i < len(led.Acked); i++ {
		if led.Acked[i-1] >= led.Acked[i] {
			t.Fatalf("ledger acks not strictly sorted: %v", led.Acked)
		}
	}
	if led.From != "A" || led.To != "D" || led.Size != 32<<20 || led.ChunkBytes != 2<<20 {
		t.Fatalf("ledger header wrong: %+v", led)
	}
}

func TestAbortIsIdempotentAndFinalFinishIsSuppressed(t *testing.T) {
	r := newRig(t, false)
	calls := 0
	h, err := r.mgr.Transfer(Request{From: "A", To: "B", Size: 8 << 20,
		Strategy: Direct, Intr: 1}, func(Result) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	r.mgr.Abort(h)
	r.mgr.Abort(h) // double abort is a no-op
	r.sched.RunFor(time.Minute)
	if calls != 0 {
		t.Fatalf("onDone fired %d times after abort", calls)
	}
	if !h.Done() {
		t.Fatal("aborted handle not marked done")
	}
}
