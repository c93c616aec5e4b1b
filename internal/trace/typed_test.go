package trace

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTypedConstructorsWireCompatible pins the JSONL wire format: every typed
// constructor must serialize byte-identically to the free-form Event literal
// it replaced at its emission site.
func TestTypedConstructorsWireCompatible(t *testing.T) {
	at := 90 * time.Second
	pairs := []struct {
		name    string
		typed   Event
		literal Event
	}{
		{"transfer_start",
			NewTransferStart(at, "tokyo", "paris", 1<<20, "parallel-dynamic"),
			Event{At: at, Kind: TransferStart, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Note: "parallel-dynamic"}},
		{"transfer_done",
			NewTransferDone(at, "tokyo", "paris", 1<<20, 12500*time.Millisecond, "direct"),
			Event{At: at, Kind: TransferDone, Site: "tokyo", Peer: "paris", Bytes: 1 << 20, Value: 12.5, Note: "direct"}},
		{"retransmit",
			NewRetransmit(at, "tokyo", "paris", 4096, 3),
			Event{At: at, Kind: Retransmit, Site: "tokyo", Peer: "paris", Bytes: 4096, Value: 3}},
		{"replan-self-heal",
			NewReplan(at, "tokyo", "paris", 2, "self-heal"),
			Event{At: at, Kind: Replan, Site: "tokyo", Peer: "paris", Value: 2, Note: "self-heal"}},
		{"window_complete",
			NewWindowComplete(at, "paris", 1500*time.Millisecond, "[60s,90s)"),
			Event{At: at, Kind: WindowComplete, Site: "paris", Value: 1.5, Note: "[60s,90s)"}},
		{"site_fail",
			NewSiteFail(at, "tokyo", 45*time.Second),
			Event{At: at, Kind: SiteFail, Site: "tokyo", Value: 45, Note: "declared dead"}},
		{"site_recover",
			NewSiteRecover(at, "tokyo"),
			Event{At: at, Kind: SiteRecover, Site: "tokyo"}},
		{"backlog-drained",
			NewBacklogDrained(at, "paris", 30*time.Second),
			Event{At: at, Kind: SiteRecover, Site: "paris", Value: 30, Note: "backlog drained"}},
		{"checkpoint",
			NewCheckpoint(at, "paris", 2048, 7),
			Event{At: at, Kind: Checkpoint, Site: "paris", Bytes: 2048, Value: 7}},
		{"checkpoint-decode-failed",
			NewCheckpointDecodeFailed(at, "paris", errors.New("bad header")),
			Event{At: at, Kind: Checkpoint, Site: "paris", Note: "decode failed: bad header"}},
		{"failover-stall",
			NewFailoverStall(at, "paris"),
			Event{At: at, Kind: Failover, Site: "paris", Note: "no viable sink; stalling"}},
		{"failover",
			NewFailover(at, "paris", "osaka"),
			Event{At: at, Kind: Failover, Site: "paris", Peer: "osaka", Note: "meta-reducer re-elected"}},
	}

	typed := New(len(pairs))
	literal := New(len(pairs))
	for _, p := range pairs {
		if p.typed != p.literal {
			t.Errorf("%s: typed %+v != literal %+v", p.name, p.typed, p.literal)
		}
		typed.Record(p.typed)
		literal.Record(p.literal)
	}
	var a, b strings.Builder
	if err := typed.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := literal.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("JSONL differs:\n%s\nvs\n%s", a.String(), b.String())
	}
}
