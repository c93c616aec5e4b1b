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

// TestNilTimelineNoops: an Observer without a Timeline (sagesim -trace
// builds one) passes every kind through the timeline's observe unharmed.
func TestNilTimelineNoops(t *testing.T) {
	var tl *Timeline
	for k := EvJobStart; k <= EvPlan; k++ {
		tl.observe(Event{Kind: k, Site: "s", Peer: "p", Dur: time.Second})
	}
}

// TestTimelineSpansFromEvents pins the span each event kind makes: the
// decision-loop and lifecycle kinds make one, the rest none.
func TestTimelineSpansFromEvents(t *testing.T) {
	tl := NewTimeline(32)
	o := &Observer{Timeline: tl}
	o.Emit(Event{Kind: EvWindowClose, At: 10 * time.Second, Site: "tokyo", Value: 42, ID: 7})
	o.Emit(Event{Kind: EvEstimate, At: 10 * time.Second, Site: "tokyo", Peer: "paris", Value: 95.5, ID: 7})
	o.Emit(Event{Kind: EvModelSize, At: 10 * time.Second, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Lanes: 3, ID: 7})
	o.Emit(Event{Kind: EvTransferDone, At: 14 * time.Second, Dur: 4 * time.Second,
		Site: "tokyo", Peer: "paris", Bytes: 1 << 20, ID: 9})
	o.Emit(Event{Kind: EvWindowDone, At: 15 * time.Second, Dur: 5 * time.Second, Site: "paris", ID: 7})
	for _, k := range []EventKind{EvJobStart, EvPartialShipped, EvDelivered, EvTransferStart,
		EvRetransmit, EvSelfHeal, EvDuplicateAck, EvSiteFail, EvSiteRecover, EvBacklogDrained,
		EvCheckpointLost, EvFailoverStall, EvProbe, EvResample, EvEgress, EvRealloc, EvPlan} {
		o.Emit(Event{Kind: k, At: 20 * time.Second, Site: "tokyo"})
	}

	snap := tl.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("len = %d, want 5", len(snap))
	}
	if ms := snap[2]; ms.Phase != PhaseModelSize || ms.Value != 3 || ms.Bytes != 1<<20 {
		t.Fatalf("ModelSize span = %+v", ms)
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
	o.Emit(Event{Kind: EvJobStart}) // the disabled layer: a no-op
	o = NewObserver()
	if o.Metrics == nil || o.Timeline == nil {
		t.Fatal("NewObserver missing parts")
	}
}
