package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sage_jobs_total", "jobs started").With().Add(2)
	cv := r.Counter("sage_acks_total", "chunk acks", "from", "to")
	cv.With("tokyo", "paris").Add(5)
	cv.With("osaka", "paris").Add(1)
	r.Gauge("sage_capacity_mbps", "link capacity", "from", "to").With("tokyo", "paris").Set(87.5)
	h := r.Histogram("sage_lat_seconds", "window latency", []float64{1, 5}, "sink")
	h.With("paris").Observe(0.5)
	h.With("paris").Observe(3)
	h.With("paris").Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP sage_acks_total chunk acks
# TYPE sage_acks_total counter
sage_acks_total{from="osaka",to="paris"} 1
sage_acks_total{from="tokyo",to="paris"} 5
# HELP sage_capacity_mbps link capacity
# TYPE sage_capacity_mbps gauge
sage_capacity_mbps{from="tokyo",to="paris"} 87.5
# HELP sage_jobs_total jobs started
# TYPE sage_jobs_total counter
sage_jobs_total 2
# HELP sage_lat_seconds window latency
# TYPE sage_lat_seconds histogram
sage_lat_seconds_bucket{sink="paris",le="1"} 1
sage_lat_seconds_bucket{sink="paris",le="5"} 2
sage_lat_seconds_bucket{sink="paris",le="+Inf"} 3
sage_lat_seconds_sum{sink="paris"} 12.5
sage_lat_seconds_count{sink="paris"} 3
`
	if got != want {
		t.Fatalf("prometheus text mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
	// Determinism: a second render must be byte-identical.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb2.String() != got {
		t.Fatal("second render differs")
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := labelEscaper.Replace(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Fatalf("escapeLabel = %q", got)
	}
	if got := labelEscaper.Replace("plain"); got != "plain" {
		t.Fatalf("labelEscaper.Replace(plain) = %q", got)
	}
}

// chromeDoc mirrors the trace_event JSON Object Format for decoding.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   *int64         `json:"ts"`
		Dur  *int64         `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	tl := NewTimeline(16)
	o := &Observer{Timeline: tl}
	o.Emit(Event{Kind: EvWindowClose, At: 2 * time.Second, Site: "tokyo", Value: 10, ID: 1})
	o.Emit(Event{Kind: EvTransferDone, At: 5 * time.Second, Dur: 3 * time.Second,
		Site: "tokyo", Peer: "paris", Bytes: 1 << 20, ID: 3})
	o.Emit(Event{Kind: EvWindowDone, At: 6 * time.Second, Dur: 4 * time.Second, Site: "paris", ID: 1})

	var sb strings.Builder
	if err := tl.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	// 1 engine + 2 site metadata records, then 3 events.
	var meta, complete, instant int
	tidName := map[int]string{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			tidName[ev.Tid] = ev.Args["name"].(string)
		case "X":
			complete++
			if ev.Name != "transfer" && ev.Name != "window" {
				t.Errorf("unexpected complete event %q", ev.Name)
			}
			if ev.Dur == nil || *ev.Dur <= 0 {
				t.Errorf("complete event %q missing dur", ev.Name)
			}
		case "i":
			instant++
			if ev.Name != "window_close" {
				t.Errorf("unexpected instant event %q", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 || complete != 2 || instant != 1 {
		t.Fatalf("meta=%d complete=%d instant=%d, want 3/2/1", meta, complete, instant)
	}
	// The transfer span: ts in virtual microseconds, peer/bytes in args.
	for _, ev := range doc.TraceEvents {
		if ev.Name != "transfer" {
			continue
		}
		if *ev.Ts != 2_000_000 || *ev.Dur != 3_000_000 {
			t.Fatalf("transfer ts=%d dur=%d", *ev.Ts, *ev.Dur)
		}
		if ev.Args["peer"] != "paris" || ev.Args["bytes"] != float64(1<<20) {
			t.Fatalf("transfer args = %v", ev.Args)
		}
		if tidName[ev.Tid] != "tokyo" {
			t.Fatalf("transfer on track %q, want tokyo", tidName[ev.Tid])
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	tl := NewTimeline(1)
	var sb strings.Builder
	if err := tl.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
	// Only the engine thread metadata record.
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("empty trace events = %+v", doc.TraceEvents)
	}
}

func TestWriteJSONStringEscapes(t *testing.T) {
	tl := NewTimeline(4)
	tl.Record(Span{Phase: PhaseMerge, Site: "a\"b\\c\x01"})
	var sb strings.Builder
	if err := tl.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("export with hostile site name is invalid JSON: %s", sb.String())
	}
}
