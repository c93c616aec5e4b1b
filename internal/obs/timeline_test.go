package obs

import (
	"testing"
	"time"
)

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(3)
	for i := 0; i < 5; i++ {
		tl.Record(Span{Phase: PhaseChunk, Start: time.Duration(i) * time.Second})
	}
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tl.Len())
	}
	if tl.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tl.Dropped())
	}
	snap := tl.Snapshot()
	for i, s := range snap {
		if want := time.Duration(i+2) * time.Second; s.Start != want {
			t.Fatalf("snap[%d].Start = %v, want %v (oldest-first)", i, s.Start, want)
		}
	}
}

func TestNilTimelineNoops(t *testing.T) {
	var tl *Timeline
	tl.Record(Span{})
	tl.WindowClose(0, "s", 1, 0)
	tl.EstimateUsed(0, "s", "p", 1, 0)
	tl.ModelSize(0, "s", "p", 1, 1, 0)
	tl.Route(0, "s", "p", 1, 0)
	tl.Dispatch(0, "s", "p", 1, 0)
	tl.Chunk(0, "s", "p", 1, 0)
	tl.Merge(0, "s", 1, 0)
	tl.TransferSpan(0, time.Second, "s", "p", 1, 0)
	tl.WindowSpan(0, time.Second, "s", 0)
	tl.CheckpointMark(0, "s", 1, 0)
	tl.FailoverMark(0, "s", "p")
	if tl.Len() != 0 || tl.Dropped() != 0 || tl.Snapshot() != nil {
		t.Fatal("nil timeline accumulated state")
	}
}

func TestTypedConstructors(t *testing.T) {
	tl := NewTimeline(32)
	tl.WindowClose(10*time.Second, "tokyo", 42, 7)
	tl.EstimateUsed(10*time.Second, "tokyo", "paris", 95.5, 7)
	tl.ModelSize(10*time.Second, "tokyo", "paris", 1<<20, 3, 7)
	tl.TransferSpan(10*time.Second, 14*time.Second, "tokyo", "paris", 1<<20, 9)
	tl.WindowSpan(10*time.Second, 15*time.Second, "paris", 7)

	snap := tl.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("len = %d, want 5", len(snap))
	}
	wc := snap[0]
	if wc.Phase != PhaseWindowClose || wc.Site != "tokyo" || wc.Value != 42 || wc.ID != 7 || wc.Dur != 0 {
		t.Fatalf("WindowClose span = %+v", wc)
	}
	tr := snap[3]
	if tr.Phase != PhaseTransfer || tr.Dur != 4*time.Second || tr.Bytes != 1<<20 || tr.Start+tr.Dur != 14*time.Second {
		t.Fatalf("TransferSpan = %+v", tr)
	}
	win := snap[4]
	if win.Phase != PhaseWindow || win.Dur != 5*time.Second || win.Value != 5 {
		t.Fatalf("WindowSpan = %+v", win)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseWindowClose: "window_close",
		PhaseEstimate:    "estimate",
		PhaseModelSize:   "model_size",
		PhaseRoute:       "route",
		PhaseDispatch:    "dispatch",
		PhaseChunk:       "chunk",
		PhaseMerge:       "merge",
		PhaseTransfer:    "transfer",
		PhaseWindow:      "window",
		PhaseCheckpoint:  "checkpoint",
		PhaseFailover:    "failover",
		PhaseReplan:      "replan",
	}
	if len(want) != int(phaseCount) {
		t.Errorf("phase map covers %d of %d phases", len(want), int(phaseCount))
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if got := Phase(200).String(); got != "Phase(200)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestObserverNilAccessors(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.Spans() != nil {
		t.Fatal("nil observer accessors not nil")
	}
	o = NewObserver()
	if o.Registry() == nil || o.Spans() == nil {
		t.Fatal("NewObserver missing parts")
	}
}
