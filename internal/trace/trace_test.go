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

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}
