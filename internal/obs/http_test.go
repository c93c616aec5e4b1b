package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRegistryHandlerMatchesWritePrometheus pins the /metrics contract: the
// HTTP handler must serve byte-identical output to WritePrometheus.
func TestRegistryHandlerMatchesWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sage_jobs_total", "jobs started").With().Add(3)
	r.Gauge("sage_capacity_mbps", "link capacity", "from", "to").With("tokyo", "paris").Set(87.5)
	r.Histogram("sage_lat_seconds", "window latency", []float64{1, 5}, "sink").With("paris").Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.String() != sb.String() {
		t.Fatalf("handler bytes differ from WritePrometheus:\n--- handler\n%s\n--- writer\n%s",
			rec.Body.String(), sb.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
}

func TestNilRegistryHandlerServesEmpty(t *testing.T) {
	var r *Registry
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("nil registry: code %d body %q", rec.Code, rec.Body.String())
	}
}

// TestTimelineHandlerMatchesWriteJSON pins /api/v1/timeline to the WriteJSON
// document.
func TestTimelineHandlerMatchesWriteJSON(t *testing.T) {
	tl := NewTimeline(4)
	o := &Observer{Timeline: tl}
	o.Emit(Event{Kind: EvWindowClose, At: time.Second, Site: "NEU", Value: 100, ID: 1})
	o.Emit(Event{Kind: EvTransferDone, At: 3 * time.Second, Dur: 2 * time.Second,
		Site: "NEU", Peer: "NUS", Bytes: 1 << 20, ID: 1})

	var sb strings.Builder
	if err := tl.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tl.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/timeline", nil))
	if rec.Body.String() != sb.String() {
		t.Fatalf("handler bytes differ from WriteJSON")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
}

// TestTimelineWriteJSONEmpty keeps the empty document a JSON array, not null.
func TestTimelineWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	var tl *Timeline
	if err := tl.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"spans": []`) {
		t.Fatalf("nil timeline document: %s", sb.String())
	}
}
