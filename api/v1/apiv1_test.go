package apiv1_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/obs"
)

// fullRoster exercises every Roster field at once.
func fullRoster() *apiv1.Roster {
	return &apiv1.Roster{
		Name:         "everything",
		Seed:         42,
		Topology:     "world",
		Weather:      "rough",
		CrossTraffic: apiv1.Duration(30 * time.Second),
		Workers:      map[string]int{"Medium": 8, "Small": 2},
		Jobs: []apiv1.MultiJobConfig{
			{
				JobConfig: apiv1.JobConfig{
					Sources: []apiv1.SourceConfig{
						{Site: "NEU", Rate: 800, Keys: 100, Skew: 1.1, DiurnalAmplitude: 0.5},
						{Site: "WEU", Rate: 600},
					},
					Sink:               "NUS",
					Window:             apiv1.Duration(30 * time.Second),
					Agg:                "mean",
					Strategy:           "envaware",
					Lanes:              3,
					Intr:               0.5,
					ShipRaw:            true,
					Budget:             0.02,
					Deadline:           apiv1.Duration(45 * time.Second),
					Duration:           apiv1.Duration(4 * time.Minute),
					CheckpointInterval: apiv1.Duration(time.Minute),
				},
				Name:     "alpha",
				Tenant:   "tenant-a",
				Priority: 2,
				Arrival:  apiv1.Duration(10 * time.Second),
			},
		},
		Scheduler: &apiv1.SchedulerConfig{
			MaxConcurrent: 2,
			Policy:        "fair",
			Tick:          apiv1.Duration(5 * time.Second),
			Preempt:       true,
		},
		Injections: []apiv1.Injection{
			{At: apiv1.Duration(time.Minute), Kind: "link_scale", From: "NEU", To: "NUS", Factor: 0.25},
			{At: apiv1.Duration(2 * time.Minute), Kind: "kill_node", From: "WEU", Node: 1},
		},
		Warmup: apiv1.Duration(time.Minute),
	}
}

// TestRosterRoundTrip is the codec property test: encode→decode must return
// the identical document, and a second encode must be byte-identical —
// scenario files, the CLI and the daemon all ride this one codec.
func TestRosterRoundTrip(t *testing.T) {
	orig := fullRoster()
	var buf bytes.Buffer
	if err := apiv1.EncodeRoster(&buf, orig); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	got, err := apiv1.DecodeRoster(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("decode(encode(r)) != r:\n%s", first)
	}

	buf.Reset()
	if err := apiv1.EncodeRoster(&buf, got); err != nil {
		t.Fatal(err)
	}
	if buf.String() != first {
		t.Fatalf("re-encode not byte-identical:\n--- first\n%s\n--- second\n%s", first, buf.String())
	}
}

// FuzzDecodeRoster: DecodeRoster never panics on outside bytes, and a roster
// it accepts has a stable encoding: encoding it, decoding that and encoding
// again gives the same bytes. (Not the same value: an empty "workers" object
// decodes to an empty map that encodes as absent, and decodes back as nil.)
// Seeded with the full roster, an empty document and near misses.
func FuzzDecodeRoster(f *testing.F) {
	var buf bytes.Buffer
	if err := apiv1.EncodeRoster(&buf, fullRoster()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","windwo":"30s"}`))
	f.Add([]byte(`{"jobs":[{"name":"a","duration":"-1h","sources":[{"site":"NEU","rate":1e308}]}],"cross_traffic":"5m"}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		ros, err := apiv1.DecodeRoster(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := apiv1.EncodeRoster(&re, ros); err != nil {
			t.Fatalf("accepted roster does not encode: %v", err)
		}
		first := re.String()
		again, err := apiv1.DecodeRoster(&re)
		if err != nil {
			t.Fatalf("re-encoded roster refused: %v\n%s", err, first)
		}
		re.Reset()
		if err := apiv1.EncodeRoster(&re, again); err != nil || re.String() != first {
			t.Fatalf("encoding of input %q is not stable (%v):\n%s\n%s", doc, err, first, re.String())
		}
	})
}

func TestDecodeRosterRejectsUnknownFields(t *testing.T) {
	_, err := apiv1.DecodeRoster(strings.NewReader(`{"name":"x","windwo":"30s"}`))
	if err == nil {
		t.Fatal("typo field accepted")
	}
	if !strings.Contains(err.Error(), "windwo") {
		t.Fatalf("error does not name the unknown field: %v", err)
	}
}

// TestDecodersRefuseASecondValue: a body is one JSON value. Trailing white
// space is fine; a second value, or garbage after the first, is refused.
func TestDecodersRefuseASecondValue(t *testing.T) {
	for _, tail := range []string{"{}", `{"name":"y"}`, "[]", "x", "}"} {
		if _, err := apiv1.DecodeRoster(strings.NewReader(`{"name":"x"}` + tail)); err == nil {
			t.Fatalf("roster followed by %q accepted", tail)
		}
		if _, err := apiv1.DecodeClockAction(strings.NewReader(`{"action":"pause"}` + tail)); err == nil {
			t.Fatalf("clock action followed by %q accepted", tail)
		}
	}
	if _, err := apiv1.DecodeRoster(strings.NewReader("{\"name\":\"x\"}\n \t\n")); err != nil {
		t.Fatalf("roster with trailing white space refused: %v", err)
	}
}

// TestDecodeClockAction: pause and resume are the actions; an unknown field,
// another action or none at all is refused.
func TestDecodeClockAction(t *testing.T) {
	for _, action := range []string{"pause", "resume"} {
		a, err := apiv1.DecodeClockAction(strings.NewReader(`{"action":"` + action + `"}` + "\n"))
		if err != nil || a.Action != action {
			t.Fatalf("%s: got %+v, %v", action, a, err)
		}
	}
	for _, body := range []string{`{"action":"pause","x":1}`, `{"action":"warp"}`, `{}`, `null`, `{"action":"Pause"}`, ``} {
		if a, err := apiv1.DecodeClockAction(strings.NewReader(body)); err == nil {
			t.Fatalf("%q accepted as %+v", body, a)
		}
	}
}

// FuzzDecodeClockAction: DecodeClockAction never panics, and an action it
// accepts re-encodes to a body it decodes to the same value.
func FuzzDecodeClockAction(f *testing.F) {
	for _, seed := range []string{`{"action":"pause"}`, `{"action":"resume"} `, `{"action":"pause","x":1}`,
		`{"action":"pause"}{}`, `{"ACTION":"resume"}`, `{"action":"warp"}`, `null`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		a, err := apiv1.DecodeClockAction(bytes.NewReader(body))
		if err != nil {
			return
		}
		re, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("accepted action %+v does not encode: %v", a, err)
		}
		again, err := apiv1.DecodeClockAction(bytes.NewReader(re))
		if err != nil || again != a {
			t.Fatalf("input %q decoded to %+v, its encoding %s to %+v (%v)", body, a, re, again, err)
		}
	})
}

func TestDurationCodec(t *testing.T) {
	b, err := json.Marshal(apiv1.Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshal: got %s", b)
	}
	var d apiv1.Duration
	if err := json.Unmarshal([]byte(`"2h45m"`), &d); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 2*time.Hour+45*time.Minute {
		t.Fatalf("unmarshal: got %v", time.Duration(d))
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// TestSpanPinsTimelineJSON pins the Span wire type against the encoder in
// internal/obs: every phase name and every field the flight recorder writes
// must decode losslessly through apiv1.Span.
func TestSpanPinsTimelineJSON(t *testing.T) {
	tl := obs.NewTimeline(16)
	ob := &obs.Observer{Timeline: tl}
	ob.Emit(obs.Event{Kind: obs.EvWindowClose, At: 10 * time.Second, Site: "NEU", Value: 500, ID: 7})
	ob.Emit(obs.Event{Kind: obs.EvEstimate, At: 10 * time.Second, Site: "NEU", Peer: "NUS", Value: 88.5, ID: 7})
	ob.Emit(obs.Event{Kind: obs.EvDispatch, At: 10 * time.Second, Site: "NEU", Peer: "NUS", Bytes: 1 << 20, ID: 3})
	ob.Emit(obs.Event{Kind: obs.EvTransferDone, At: 12 * time.Second, Dur: 2 * time.Second,
		Site: "NEU", Peer: "NUS", Bytes: 1 << 20, ID: 3})

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc apiv1.TimelineDoc
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("timeline JSON does not decode through apiv1: %v\n%s", err, buf.String())
	}
	if doc.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", doc.Dropped)
	}
	want := []apiv1.Span{
		{Phase: "window_close", Site: "NEU", StartNS: int64(10 * time.Second), Value: 500, ID: 7},
		{Phase: "estimate", Site: "NEU", Peer: "NUS", StartNS: int64(10 * time.Second), Value: 88.5, ID: 7},
		{Phase: "dispatch", Site: "NEU", Peer: "NUS", StartNS: int64(10 * time.Second), Bytes: 1 << 20, ID: 3},
		{Phase: "transfer", Site: "NEU", Peer: "NUS", StartNS: int64(10 * time.Second), DurNS: int64(2 * time.Second), Bytes: 1 << 20, ID: 3},
	}
	if !reflect.DeepEqual(doc.Spans, want) {
		t.Fatalf("spans = %+v\nwant %+v", doc.Spans, want)
	}
}

// TestSpanPhaseVocabulary keeps the documented phase names in sync with the
// obs enumeration.
func TestSpanPhaseVocabulary(t *testing.T) {
	for _, p := range []obs.Phase{
		obs.PhaseWindowClose, obs.PhaseEstimate, obs.PhaseModelSize,
		obs.PhaseRoute, obs.PhaseDispatch, obs.PhaseChunk, obs.PhaseMerge,
		obs.PhaseTransfer, obs.PhaseWindow, obs.PhaseCheckpoint,
		obs.PhaseFailover, obs.PhaseReplan,
	} {
		if strings.HasPrefix(p.String(), "Phase(") {
			t.Fatalf("phase %d has no name", p)
		}
	}
}

func TestAuditRecordRoundTrip(t *testing.T) {
	recs := []apiv1.AuditRecord{
		{T: apiv1.Duration(time.Minute), Wall: "2026-08-07T00:00:00Z", Kind: apiv1.AuditAPI,
			Action: "submit", Detail: "2 job(s)"},
		{T: apiv1.Duration(90 * time.Second), Wall: "2026-08-07T00:00:01Z", Kind: apiv1.AuditTransfer,
			Transfer: &apiv1.TransferAudit{
				JobID: 1, From: "NEU", To: "NUS", Strategy: "envaware",
				Bytes: 1 << 20, Lanes: 3,
				PredictedMBps: 80, PredictedTime: apiv1.Duration(2 * time.Second), PredictedCost: 0.01,
				ActualMBps: 75.5, ActualTime: apiv1.Duration(2500 * time.Millisecond), ActualCost: 0.012,
				NodesUsed: 2, Replans: 1,
			}},
		{T: apiv1.Duration(2 * time.Minute), Wall: "2026-08-07T00:00:02Z", Kind: apiv1.AuditPlanner,
			Planner: &apiv1.PlannerAudit{Replans: 3, CacheHits: 10, Repairs: 2, FullRecomputes: 1, DirtyEdges: 7, ChangedEdges: 4}},
	}
	for _, rec := range recs {
		b, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		var got apiv1.AuditRecord
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s record does not round-trip: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("%s record changed in flight:\n%+v\n%+v", rec.Kind, rec, got)
		}
	}
}
