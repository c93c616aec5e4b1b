package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ev(at time.Duration, kind Kind) Event {
	return Event{At: at, Kind: kind, Site: "NEU", Bytes: 100, Value: 1.5}
}

func TestRecordAndEvents(t *testing.T) {
	r := New(10)
	r.Record(ev(1*time.Second, TransferStart))
	r.Record(ev(2*time.Second, TransferDone))
	events := r.Events()
	if len(events) != 2 || events[0].Kind != TransferStart || events[1].Kind != TransferDone {
		t.Fatalf("events = %v", events)
	}
	if r.Dropped() != 0 {
		t.Fatal("nothing should be dropped yet")
	}
}

func TestRingEviction(t *testing.T) {
	r := New(3)
	for i := 1; i <= 5; i++ {
		r.Record(ev(time.Duration(i)*time.Second, ChunkAck))
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("len = %d", len(events))
	}
	if events[0].At != 3*time.Second || events[2].At != 5*time.Second {
		t.Fatalf("wrong retention order: %v", events)
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

func TestFilter(t *testing.T) {
	r := New(10)
	r.Record(ev(1*time.Second, ChunkAck))
	r.Record(ev(2*time.Second, Replan))
	r.Record(ev(3*time.Second, ChunkAck))
	acks := r.Filter(ChunkAck)
	if len(acks) != 2 {
		t.Fatalf("acks = %d", len(acks))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New(10)
	r.Record(Event{At: time.Second, Kind: TransferStart, Site: "NEU", Peer: "NUS", Bytes: 1 << 20, Note: "EnvAware"})
	r.Record(ev(2*time.Second, TransferDone))
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(b.String(), "\n")
	if lines != 2 {
		t.Fatalf("JSONL lines = %d", lines)
	}
	var back []Event
	for dec := json.NewDecoder(strings.NewReader(b.String())); dec.More(); {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		back = append(back, e)
	}
	if len(back) != 2 || back[0].Note != "EnvAware" || back[0].Peer != "NUS" {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestSummary(t *testing.T) {
	r := New(10)
	r.Record(Event{At: 1, Kind: ChunkAck, Bytes: 10, Value: 2})
	r.Record(Event{At: 2, Kind: ChunkAck, Bytes: 30, Value: 4})
	r.Record(Event{At: 3, Kind: Replan})
	sum := r.Summary()
	if len(sum) != 2 {
		t.Fatalf("summary = %v", sum)
	}
	// Sorted by kind: chunk_ack < replan.
	if sum[0].Kind != ChunkAck || sum[0].Count != 2 || sum[0].Bytes != 40 || sum[0].MeanValue != 3 {
		t.Fatalf("chunk summary = %+v", sum[0])
	}
	if !strings.Contains(r.String(), "chunk_ack") {
		t.Fatal("String missing kinds")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestResilienceKindsInSummary(t *testing.T) {
	r := New(10)
	r.Record(Event{At: 1, Kind: SiteFail, Site: "NEU", Value: 10})
	r.Record(Event{At: 2, Kind: Checkpoint, Site: "NUS", Bytes: 512, Value: 1})
	r.Record(Event{At: 3, Kind: Checkpoint, Site: "NUS", Bytes: 768, Value: 2})
	r.Record(Event{At: 4, Kind: Failover, Site: "NUS", Peer: "SUS"})
	r.Record(Event{At: 5, Kind: SiteRecover, Site: "NEU"})
	sum := r.Summary()
	counts := map[Kind]int{}
	bytes := map[Kind]int64{}
	for _, row := range sum {
		counts[row.Kind] = row.Count
		bytes[row.Kind] = row.Bytes
	}
	if counts[SiteFail] != 1 || counts[SiteRecover] != 1 || counts[Failover] != 1 {
		t.Fatalf("summary counts wrong: %+v", sum)
	}
	if counts[Checkpoint] != 2 || bytes[Checkpoint] != 1280 {
		t.Fatalf("checkpoint aggregation wrong: %+v", sum)
	}
	s := r.String()
	for _, want := range []string{"site_fail", "site_recover", "checkpoint", "failover"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}
