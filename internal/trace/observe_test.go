package trace

import (
	"strings"
	"testing"
	"time"

	"sage/internal/obs"
)

// TestObserveWireCompatible pins the JSONL wire format: every engine fact a
// Recorder keeps must serialize byte-identically to the Event literal its
// emission site wrote before the event spine, and the facts the trace does
// not keep must record nothing.
func TestObserveWireCompatible(t *testing.T) {
	at := 90 * time.Second
	pairs := []struct {
		name    string
		fact    obs.Event
		literal Event
	}{
		{"transfer_start",
			obs.Event{Kind: obs.EvTransferStart, At: at, Job: 2, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Note: "parallel-dynamic", ID: 4},
			Event{At: at, Kind: TransferStart, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Note: "parallel-dynamic", Job: 2}},
		{"transfer_done",
			obs.Event{Kind: obs.EvTransferDone, At: at, Dur: 12500 * time.Millisecond, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Note: "direct"},
			Event{At: at, Kind: TransferDone, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Value: 12.5, Note: "direct"}},
		{"retransmit",
			obs.Event{Kind: obs.EvRetransmit, At: at, Job: 1, Site: "tokyo", Peer: "paris", Bytes: 4096, Value: 3},
			Event{At: at, Kind: Retransmit, Site: "tokyo", Peer: "paris", Bytes: 4096, Value: 3, Job: 1}},
		{"replan",
			obs.Event{Kind: obs.EvReplan, At: at, Site: "tokyo", Peer: "paris", Value: 2, Lanes: 5, Note: "WidestDynamic"},
			Event{At: at, Kind: Replan, Site: "tokyo", Peer: "paris", Value: 2, Note: "WidestDynamic"}},
		{"replan-self-heal",
			obs.Event{Kind: obs.EvSelfHeal, At: at, Site: "tokyo", Peer: "paris", Value: 2},
			Event{At: at, Kind: Replan, Site: "tokyo", Peer: "paris", Value: 2, Note: "self-heal"}},
		{"window_complete",
			obs.Event{Kind: obs.EvWindowDone, At: at, Dur: 1500 * time.Millisecond, Job: 3, Site: "paris", ID: uint64(60 * time.Second)},
			Event{At: at, Kind: WindowComplete, Site: "paris", Value: 1.5, Note: "[1m0s,1m28.5s)", Job: 3}},
		{"site_fail",
			obs.Event{Kind: obs.EvSiteFail, At: at, Job: 1, Site: "tokyo", Dur: 45 * time.Second},
			Event{At: at, Kind: SiteFail, Site: "tokyo", Value: 45, Note: "declared dead"}},
		{"site_recover",
			obs.Event{Kind: obs.EvSiteRecover, At: at, Job: 1, Site: "tokyo"},
			Event{At: at, Kind: SiteRecover, Site: "tokyo"}},
		{"backlog-drained",
			obs.Event{Kind: obs.EvBacklogDrained, At: at, Job: 1, Site: "paris", Dur: 30 * time.Second},
			Event{At: at, Kind: SiteRecover, Site: "paris", Value: 30, Note: "backlog drained"}},
		{"checkpoint",
			obs.Event{Kind: obs.EvCheckpoint, At: at, Job: 1, Site: "paris", Bytes: 2048, ID: 7},
			Event{At: at, Kind: Checkpoint, Site: "paris", Bytes: 2048, Value: 7}},
		{"checkpoint-decode-failed",
			obs.Event{Kind: obs.EvCheckpointLost, At: at, Site: "paris", Note: "bad header"},
			Event{At: at, Kind: Checkpoint, Site: "paris", Note: "decode failed: bad header"}},
		{"failover-stall",
			obs.Event{Kind: obs.EvFailoverStall, At: at, Site: "paris"},
			Event{At: at, Kind: Failover, Site: "paris", Note: "no viable sink; stalling"}},
		{"failover",
			obs.Event{Kind: obs.EvFailover, At: at, Site: "paris", Peer: "osaka"},
			Event{At: at, Kind: Failover, Site: "paris", Peer: "osaka", Note: "meta-reducer re-elected"}},
	}

	observed := New(len(pairs))
	literal := New(len(pairs))
	for _, p := range pairs {
		observed.Observe(p.fact)
		literal.Record(p.literal)
	}
	for _, k := range []obs.EventKind{obs.EvJobStart, obs.EvWindowClose, obs.EvPartialShipped,
		obs.EvEstimate, obs.EvModelSize, obs.EvDispatch, obs.EvMerge, obs.EvDelivered, obs.EvRoute,
		obs.EvChunkAck, obs.EvDuplicateAck, obs.EvProbe, obs.EvResample, obs.EvEgress, obs.EvRealloc,
		obs.EvPlan} {
		observed.Observe(obs.Event{Kind: k, At: at, Site: "tokyo"})
	}
	for i, e := range observed.Events() {
		if e != pairs[i].literal {
			t.Errorf("%s: observed %+v != literal %+v", pairs[i].name, e, pairs[i].literal)
		}
	}
	var a, b strings.Builder
	if err := observed.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := literal.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("JSONL differs:\n%s\nvs\n%s", a.String(), b.String())
	}
}
