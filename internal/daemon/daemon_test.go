package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/route"
	"sage/internal/scenario"
)

// testRoster is a three-job roster whose third job arrives far in the
// future, so a paused daemon can cancel it before it ever touches the world.
func testRoster() *apiv1.Roster {
	job := func(name, tenant, site string, rate float64, arrival, dur time.Duration) apiv1.MultiJobConfig {
		return apiv1.MultiJobConfig{
			Name: name, Tenant: tenant,
			Arrival: apiv1.Duration(arrival),
			JobConfig: apiv1.JobConfig{
				Sources:  []apiv1.SourceConfig{{Site: site, Rate: rate}},
				Sink:     "NUS",
				Window:   apiv1.Duration(30 * time.Second),
				Agg:      "sum",
				Strategy: "direct",
				Lanes:    2,
				Duration: apiv1.Duration(dur),
			},
		}
	}
	ros := &apiv1.Roster{
		Name:    "daemon-e2e",
		Seed:    7,
		Weather: "calm",
		Scheduler: &apiv1.SchedulerConfig{
			MaxConcurrent: 2,
			Policy:        "fifo",
		},
		Jobs: []apiv1.MultiJobConfig{
			job("alpha", "a", "NEU", 400, 0, 2*time.Minute),
			job("bravo", "b", "WEU", 400, 10*time.Second, 90*time.Second),
			job("victim", "c", "SUS", 500, 10*time.Minute, 2*time.Minute),
		},
	}
	// Route one job through the multipath planner so runs exercise (and the
	// audit log captures) incremental route-planning activity.
	ros.Jobs[1].Strategy = "multipath"
	return ros
}

// startDaemon boots a paused daemon behind an httptest server.
func startDaemon(t *testing.T, opt Options) (*Daemon, *httptest.Server) {
	t.Helper()
	d := New(opt)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() { ts.Close(); d.Stop() })
	return d, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func doReq(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// statusOf drains and closes a response, returning its status code.
func statusOf(t *testing.T, resp *http.Response) int {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func submitRoster(t *testing.T, ts *httptest.Server, ros *apiv1.Roster) apiv1.SubmitResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := apiv1.EncodeRoster(&buf, ros); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	return decodeBody[apiv1.SubmitResponse](t, resp)
}

func setClock(t *testing.T, ts *httptest.Server, action string) apiv1.Clock {
	t.Helper()
	resp := postJSON(t, ts.URL+"/api/v1/clock", apiv1.ClockAction{Action: action})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clock %s: status %d", action, resp.StatusCode)
	}
	return decodeBody[apiv1.Clock](t, resp)
}

// pollReport polls GET /api/v1/report until the roster drains, scraping
// /metrics along the way so the concurrent read paths run under -race.
func pollReport(t *testing.T, ts *httptest.Server) apiv1.MultiReport {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		resp, err := http.Get(ts.URL + "/api/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			return decodeBody[apiv1.MultiReport](t, resp)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("report: status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("roster did not drain in time")
	panic("unreachable")
}

// TestDaemonEndToEnd is the headline contract: submit a roster over HTTP,
// cancel one job before its arrival, run the world live, and get a final
// report whose fingerprint is byte-identical to a direct batch run of the
// surviving roster.
func TestDaemonEndToEnd(t *testing.T) {
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	auditFile, err := os.Create(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	d, ts := startDaemon(t, Options{StartPaused: true, Quantum: 5 * time.Second, Audit: auditFile})

	sub := submitRoster(t, ts, testRoster())
	if want := []string{"alpha", "bravo", "victim"}; fmt.Sprint(sub.Submitted) != fmt.Sprint(want) {
		t.Fatalf("submitted %v, want %v", sub.Submitted, want)
	}

	// Paused clock: everything is still waiting to arrive.
	l := decodeBody[apiv1.JobList](t, doReq(t, "GET", ts.URL+"/api/v1/jobs"))
	if len(l.Jobs) != 3 {
		t.Fatalf("got %d jobs", len(l.Jobs))
	}
	for _, j := range l.Jobs {
		if j.State != "submitted" {
			t.Fatalf("job %s state %q before resume", j.Name, j.State)
		}
	}

	// Cancel the future job; it must never touch the simulation.
	resp := doReq(t, "DELETE", ts.URL+"/api/v1/jobs/victim")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if st := decodeBody[apiv1.JobStatus](t, resp); st.State != "cancelled" {
		t.Fatalf("victim state %q", st.State)
	}

	if c := setClock(t, ts, "resume"); c.Paused {
		t.Fatal("clock still paused after resume")
	}

	rep := pollReport(t, ts)
	if len(rep.Jobs) != 3 {
		t.Fatalf("report has %d jobs", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Name == "victim" {
			if !j.Cancelled || j.JobID != -1 || j.Report != nil {
				t.Fatalf("victim row: %+v", j)
			}
		} else if j.Cancelled || j.Report == nil || j.Report.Windows == 0 {
			t.Fatalf("surviving row %s: %+v", j.Name, j)
		}
	}

	// The daemon-run world must be indistinguishable from a batch run of the
	// roster that never contained the cancelled job.
	surviving := testRoster()
	surviving.Jobs = surviving.Jobs[:2]
	res, err := scenario.Run(surviving)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", res.Multi.Fingerprint()); rep.Fingerprint != want {
		t.Fatalf("daemon fingerprint %s, batch fingerprint %s", rep.Fingerprint, want)
	}

	// The timeline endpoint serves decodable spans of the live run.
	tl := decodeBody[apiv1.TimelineDoc](t, doReq(t, "GET", ts.URL+"/api/v1/timeline"))
	if len(tl.Spans) == 0 {
		t.Fatal("timeline is empty after a full run")
	}

	// A later roster joins the live world: the daemon accepts it, drives it
	// to completion, and the report grows a row.
	second := &apiv1.Roster{
		Name: "late-joiner",
		Jobs: []apiv1.MultiJobConfig{{
			Name: "delta", Tenant: "d",
			JobConfig: apiv1.JobConfig{
				Sources:  []apiv1.SourceConfig{{Site: "NEU", Rate: 200}},
				Sink:     "NUS",
				Window:   apiv1.Duration(30 * time.Second),
				Agg:      "mean",
				Strategy: "envaware",
				Duration: apiv1.Duration(time.Minute),
			},
		}},
	}
	if sub := submitRoster(t, ts, second); len(sub.Submitted) != 1 {
		t.Fatalf("second submit: %v", sub.Submitted)
	}
	rep = pollReport(t, ts)
	if len(rep.Jobs) != 4 {
		t.Fatalf("report after late join has %d jobs", len(rep.Jobs))
	}

	ts.Close()
	d.Stop()
	auditFile.Close()
	// The driver is dead: the planner's counters are final.
	checkAuditLog(t, auditPath, d.eng.Mgr.Planner().Stats())
}

// checkAuditLog decodes every JSONL line through the apiv1 schema and checks
// the log captured the API mutations, predicted-vs-actual transfer rows, and
// planner activity of the run: the planner rows sum to the planner's
// counters at Stop.
func checkAuditLog(t *testing.T, path string, planner route.PlannerStats) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	kinds := map[string]int{}
	actions := map[string]int{}
	var plan apiv1.PlannerAudit
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		lines++
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		var rec apiv1.AuditRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("audit line %d does not match the schema: %v\n%s", lines, err, sc.Text())
		}
		if rec.Wall == "" {
			t.Fatalf("audit line %d has no wall timestamp", lines)
		}
		if _, err := time.Parse(time.RFC3339Nano, rec.Wall); err != nil {
			t.Fatalf("audit line %d wall %q: %v", lines, rec.Wall, err)
		}
		kinds[rec.Kind]++
		switch rec.Kind {
		case apiv1.AuditAPI:
			actions[rec.Action]++
		case apiv1.AuditTransfer:
			tr := rec.Transfer
			if tr == nil {
				t.Fatalf("audit line %d: transfer record without payload", lines)
			}
			if tr.PredictedMBps <= 0 || tr.PredictedTime <= 0 || tr.ActualMBps <= 0 || tr.ActualTime <= 0 {
				t.Fatalf("audit line %d: missing prediction or outcome: %+v", lines, tr)
			}
			if tr.From == "" || tr.To == "" || tr.Bytes <= 0 || tr.Strategy == "" {
				t.Fatalf("audit line %d: incomplete transfer row: %+v", lines, tr)
			}
		case apiv1.AuditPlanner:
			p := rec.Planner
			if p == nil {
				t.Fatalf("audit line %d: planner record without payload", lines)
			}
			if *p == (apiv1.PlannerAudit{}) {
				t.Fatalf("audit line %d: empty planner row", lines)
			}
			plan.Replans += p.Replans
			plan.CacheHits += p.CacheHits
			plan.Repairs += p.Repairs
			plan.FullRecomputes += p.FullRecomputes
			plan.DirtyEdges += p.DirtyEdges
			plan.ChangedEdges += p.ChangedEdges
		default:
			t.Fatalf("audit line %d: unknown kind %q", lines, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds[apiv1.AuditTransfer] == 0 {
		t.Fatal("no transfer audit rows")
	}
	if kinds[apiv1.AuditPlanner] == 0 {
		t.Fatal("no planner audit rows")
	}
	if want := (apiv1.PlannerAudit{Replans: planner.Replans, CacheHits: planner.CacheHits,
		Repairs: planner.Repairs, FullRecomputes: planner.FullRecomputes,
		DirtyEdges: planner.DirtyEdges, ChangedEdges: planner.ChangedEdges}); plan != want {
		t.Fatalf("planner rows sum to %+v, planner counted %+v", plan, want)
	}
	for _, want := range []string{"submit", "cancel", "clock-resume", "shutdown"} {
		if actions[want] == 0 {
			t.Fatalf("no %q API audit row; have %v", want, actions)
		}
	}
}

// TestDaemonPauseResume holds one job with a manual pause while the rest of
// the roster drains, then lifts it and drains the stragglers.
func TestDaemonPauseResume(t *testing.T) {
	_, ts := startDaemon(t, Options{StartPaused: true, Quantum: 5 * time.Second})
	ros := testRoster()
	ros.Jobs = ros.Jobs[:2] // alpha + bravo
	submitRoster(t, ts, ros)

	// Hold alpha before it arrives, then let the world run.
	if code := statusOf(t, postJSON(t, ts.URL+"/api/v1/jobs/alpha/pause", struct{}{})); code != http.StatusOK {
		t.Fatalf("pause: status %d", code)
	}
	setClock(t, ts, "resume")

	// bravo drains while alpha is held out of admission.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("bravo did not finish while alpha was paused")
		}
		l := decodeBody[apiv1.JobList](t, doReq(t, "GET", ts.URL+"/api/v1/jobs"))
		states := map[string]string{}
		for _, j := range l.Jobs {
			states[j.Name] = j.State
		}
		if states["alpha"] == "done" {
			t.Fatal("paused job ran to completion")
		}
		if states["bravo"] == "done" {
			if st := states["alpha"]; st != "paused" {
				t.Fatalf("alpha state %q while held, want paused", st)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code := statusOf(t, postJSON(t, ts.URL+"/api/v1/jobs/alpha/resume", struct{}{})); code != http.StatusOK {
		t.Fatalf("resume: status %d", code)
	}
	rep := pollReport(t, ts)
	for _, j := range rep.Jobs {
		if j.Cancelled || j.Report == nil {
			t.Fatalf("job %s did not finish: %+v", j.Name, j)
		}
	}
}

// TestDaemonErrorMapping pins the API's typed error surface: SpecErrors are
// structured 400s, unknown jobs 404, finished jobs and duplicates 409.
func TestDaemonErrorMapping(t *testing.T) {
	_, ts := startDaemon(t, Options{StartPaused: true})

	// Malformed body.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Mutations and reports before any roster exists.
	if code := statusOf(t, doReq(t, "DELETE", ts.URL+"/api/v1/jobs/alpha")); code != http.StatusNotFound {
		t.Fatalf("cancel before roster: status %d", code)
	}
	if code := statusOf(t, doReq(t, "GET", ts.URL+"/api/v1/report")); code != http.StatusConflict {
		t.Fatalf("report before roster: status %d", code)
	}

	// A roster with an unknown sink or source site is rejected as a
	// structured 400 naming the spec field — the same typed error the CLI
	// prints; a negative rate is a 400 whose message names the field.
	for _, bad := range []struct {
		name, field, text string
		mutate            func(*apiv1.Roster)
	}{
		{"bad sink", "Sink", "NOWHERE", func(r *apiv1.Roster) { r.Jobs[1].Sink = "NOWHERE" }},
		{"bad source site", "Sources[0].Site", "MARS", func(r *apiv1.Roster) { r.Jobs[1].Sources[0].Site = "MARS" }},
		{"negative rate", "", "rate", func(r *apiv1.Roster) { r.Jobs[1].Sources[0].Rate = -5 }},
	} {
		ros := testRoster()
		bad.mutate(ros)
		var buf bytes.Buffer
		if err := apiv1.EncodeRoster(&buf, ros); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", bad.name, resp.StatusCode)
		}
		er := decodeBody[apiv1.ErrorResponse](t, resp)
		if er.Field != bad.field || (bad.field != "" && er.Reason == "") || !strings.Contains(er.Error, bad.text) {
			t.Fatalf("%s: error not structured: %+v", bad.name, er)
		}
	}

	// Atomic rejection: the two valid jobs of the bad roster submitted
	// nothing.
	l := decodeBody[apiv1.JobList](t, doReq(t, "GET", ts.URL+"/api/v1/jobs"))
	if len(l.Jobs) != 0 {
		t.Fatalf("rejected roster leaked %d jobs", len(l.Jobs))
	}

	// A good roster, then the typed control-flow errors.
	submitRoster(t, ts, testRoster())
	if code := statusOf(t, doReq(t, "DELETE", ts.URL+"/api/v1/jobs/ghost")); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d", code)
	}
	if code := statusOf(t, doReq(t, "DELETE", ts.URL+"/api/v1/jobs/victim")); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	// Pausing a cancelled job is a conflict.
	if code := statusOf(t, postJSON(t, ts.URL+"/api/v1/jobs/victim/pause", struct{}{})); code != http.StatusConflict {
		t.Fatalf("pause cancelled: status %d", code)
	}
	// Cancelling twice is idempotent.
	if code := statusOf(t, doReq(t, "DELETE", ts.URL+"/api/v1/jobs/victim")); code != http.StatusOK {
		t.Fatalf("re-cancel: status %d", code)
	}
	// Resubmitting a live name is a conflict.
	dup := testRoster()
	dup.Jobs = dup.Jobs[:1]
	var buf2 bytes.Buffer
	if err := apiv1.EncodeRoster(&buf2, dup); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", &buf2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate name: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad clock actions: an unknown action, an unknown field, a second value.
	if code := statusOf(t, postJSON(t, ts.URL+"/api/v1/clock", apiv1.ClockAction{Action: "warp"})); code != http.StatusBadRequest {
		t.Fatalf("bad clock action: status %d", code)
	}
	for _, body := range []string{`{"action":"pause","x":1}`, `{"action":"pause"}{}`} {
		resp, err := http.Post(ts.URL+"/api/v1/clock", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if code := statusOf(t, resp); code != http.StatusBadRequest {
			t.Fatalf("clock body %s: status %d, want 400", body, code)
		}
	}

	// Regression: the rejected first roster must not have half-adopted a
	// world. The good roster submitted after it is still the daemon's first,
	// so its arrivals were scheduled through Open and resuming the clock
	// drains it — before the fix the jobs sat in "submitted" forever.
	setClock(t, ts, "resume")
	rep := pollReport(t, ts)
	if len(rep.Jobs) != 3 {
		t.Fatalf("report has %d jobs", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Name == "victim" {
			if !j.Cancelled {
				t.Fatalf("victim row: %+v", j)
			}
		} else if j.Cancelled || j.Report == nil || j.Report.Windows == 0 {
			t.Fatalf("job %s did not run after the rejected roster: %+v", j.Name, j)
		}
	}
}

// TestDaemonRejectsInjectionOffTheWorld answers 400 to a first roster whose
// link_scale names a link the world does not have, and submits nothing: the
// injection would otherwise panic inside the daemon when the clock reaches
// it, and take the process down.
func TestDaemonRejectsInjectionOffTheWorld(t *testing.T) {
	_, ts := startDaemon(t, Options{})
	bad := testRoster()
	bad.Injections = []apiv1.Injection{{At: apiv1.Duration(30 * time.Second), Kind: "link_scale", From: "NEU", To: "NOPE", Factor: 0.5}}
	var buf bytes.Buffer
	if err := apiv1.EncodeRoster(&buf, bad); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("link_scale off the world: status %d, want 400", statusOf(t, resp))
	}
	if er := decodeBody[apiv1.ErrorResponse](t, resp); !strings.Contains(er.Error, "NOPE") {
		t.Fatalf("error does not name the link: %+v", er)
	}
	if l := decodeBody[apiv1.JobList](t, doReq(t, "GET", ts.URL+"/api/v1/jobs")); len(l.Jobs) != 0 {
		t.Fatalf("rejected roster submitted %d jobs", len(l.Jobs))
	}

	// The daemon is still world-less, so the corrected roster is the first
	// one, and runs through the injection's instant.
	bad.Jobs = bad.Jobs[:2]
	bad.Injections[0].To = "NUS"
	submitRoster(t, ts, bad)
	if rep := pollReport(t, ts); len(rep.Jobs) != 2 {
		t.Fatalf("corrected roster reported %d jobs, want 2", len(rep.Jobs))
	}
}

// TestDaemonAllPausedIdlesClock pins the driver's idle rule: a roster whose
// every active job is manually paused has no runnable work, so the driver
// parks on its mailbox and the virtual clock freezes instead of busy-spinning;
// resuming the jobs wakes it and the roster drains.
func TestDaemonAllPausedIdlesClock(t *testing.T) {
	_, ts := startDaemon(t, Options{StartPaused: true, Quantum: 5 * time.Second})
	ros := testRoster()
	ros.Jobs = ros.Jobs[:2] // alpha + bravo
	submitRoster(t, ts, ros)
	for _, name := range []string{"alpha", "bravo"} {
		if code := statusOf(t, postJSON(t, ts.URL+"/api/v1/jobs/"+name+"/pause", struct{}{})); code != http.StatusOK {
			t.Fatalf("pause %s: status %d", name, code)
		}
	}
	setClock(t, ts, "resume")
	// Reads serialize through the mailbox and the driver only runs a quantum
	// when something is runnable, so with the whole roster held the two
	// snapshots must agree exactly.
	c1 := decodeBody[apiv1.Clock](t, doReq(t, "GET", ts.URL+"/api/v1/clock"))
	time.Sleep(50 * time.Millisecond)
	c2 := decodeBody[apiv1.Clock](t, doReq(t, "GET", ts.URL+"/api/v1/clock"))
	if c1.Now != c2.Now || c1.Fired != c2.Fired {
		t.Fatalf("clock advanced while the whole roster was paused: %+v -> %+v", c1, c2)
	}
	for _, name := range []string{"alpha", "bravo"} {
		if code := statusOf(t, postJSON(t, ts.URL+"/api/v1/jobs/"+name+"/resume", struct{}{})); code != http.StatusOK {
			t.Fatalf("resume %s: status %d", name, code)
		}
	}
	rep := pollReport(t, ts)
	for _, j := range rep.Jobs {
		if j.Cancelled || j.Report == nil {
			t.Fatalf("job %s did not finish after resume: %+v", j.Name, j)
		}
	}
}

// TestDaemonStopRejectsAPI pins the 503 after shutdown.
func TestDaemonStopRejectsAPI(t *testing.T) {
	d := New(Options{StartPaused: true})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	d.Stop()
	resp := doReq(t, "GET", ts.URL+"/api/v1/jobs")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after Stop: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// metricValue scrapes /metrics and returns the value of an unlabelled
// series, failing the test when the series is missing.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp := doReq(t, "GET", ts.URL+"/metrics")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	panic("unreachable")
}

// TestDaemonStagesOnEveryCore: a daemon on a four-core runtime builds its
// world with four stage workers, says so on /metrics, counts the staging
// rounds it runs, and still reports exactly what a one-shard batch run of the
// same roster does.
func TestDaemonStagesOnEveryCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "multijob", "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startDaemon(t, Options{StartPaused: true, Quantum: 5 * time.Second})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if code := statusOf(t, resp); code != http.StatusCreated {
		t.Fatalf("submit example roster: status %d", code)
	}
	setClock(t, ts, "resume")
	rep := pollReport(t, ts)

	ros, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(ros, core.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", res.Multi.Fingerprint()); rep.Fingerprint != want {
		t.Fatalf("daemon fingerprint %s, one-shard batch fingerprint %s", rep.Fingerprint, want)
	}
	if w := metricValue(t, ts, "sage_core_stage_workers"); w != 4 {
		t.Fatalf("sage_core_stage_workers = %v, want 4", w)
	}
	if r := metricValue(t, ts, "sage_core_stage_rounds_total"); r <= 0 {
		t.Fatalf("sage_core_stage_rounds_total = %v after a full roster, want > 0", r)
	}
}

// TestDaemonSharedPopulationsFingerprint: a roster whose sources share two
// key-population shapes across four jobs reports, through the daemon, the
// fingerprint recorded when every source built its own key list and alias
// table — and so does a batch run of it. Re-record the constant only in a
// change that means to move the workload's draws.
func TestDaemonSharedPopulationsFingerprint(t *testing.T) {
	const recorded = "24c73967997ebfbe"
	ros := testRoster()
	ros.Jobs = nil
	for i := 0; i < 4; i++ {
		ros.Jobs = append(ros.Jobs, apiv1.MultiJobConfig{
			Name: fmt.Sprintf("shape%d", i), Arrival: apiv1.Duration(time.Duration(i) * 5 * time.Second),
			JobConfig: apiv1.JobConfig{
				Sources: []apiv1.SourceConfig{
					{Site: "NEU", Rate: 300, Keys: 400, Skew: 1.2},
					{Site: "WEU", Rate: 300, Keys: 400, Skew: 1.2},
					{Site: "SUS", Rate: 200, Keys: 150},
				},
				Sink: "NUS", Window: apiv1.Duration(30 * time.Second), Agg: "sum",
				Strategy: "direct", Lanes: 2, Duration: apiv1.Duration(time.Minute),
			},
		})
	}
	_, ts := startDaemon(t, Options{StartPaused: true, Quantum: 5 * time.Second})
	submitRoster(t, ts, ros)
	setClock(t, ts, "resume")
	if rep := pollReport(t, ts); rep.Fingerprint != recorded {
		t.Fatalf("daemon fingerprint %s, recorded %s", rep.Fingerprint, recorded)
	}
	res, err := scenario.Run(ros)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", res.Multi.Fingerprint()); got != recorded {
		t.Fatalf("batch fingerprint %s, recorded %s", got, recorded)
	}
}

// failingWriter takes the first n bytes and fails every write after them,
// counting the records (lines) it refused and the most records one write it
// took carried.
type failingWriter struct {
	mu                    sync.Mutex
	n, lost, fails, batch int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	records := bytes.Count(p, []byte{'\n'})
	if len(p) > w.n {
		w.n = 0
		w.fails++
		w.lost += records
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	w.batch = max(w.batch, records)
	return len(p), nil
}

// TestDaemonAuditWriteErrors: an audit log that stops taking writes costs the
// records of the flushes it refuses and nothing else — the roster still
// drains, every lost record is counted on /metrics, and Stop returns the first
// error. Records are buffered between safe points: a quantum's rows reach the
// writer in one write.
func TestDaemonAuditWriteErrors(t *testing.T) {
	w := &failingWriter{n: 2000}
	d := New(Options{StartPaused: true, Quantum: 5 * time.Second, Audit: w})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	ros := testRoster()
	ros.Jobs = ros.Jobs[:2]
	submitRoster(t, ts, ros)
	setClock(t, ts, "resume")
	for _, j := range pollReport(t, ts).Jobs {
		if j.Report == nil || j.Report.Windows == 0 {
			t.Fatalf("job %s did not run with a failing audit log: %+v", j.Name, j)
		}
	}
	// Read before Stop, which writes one more record; the driver is idle
	// (the roster drained), so the count is settled.
	w.mu.Lock()
	fails, lost, batch := w.fails, w.lost, w.batch
	w.mu.Unlock()
	if fails == 0 {
		t.Fatal("fixture: the audit log never overflowed its writer")
	}
	if batch < 2 {
		t.Fatalf("every write the log took carried %d record(s); a quantum's rows should share one", batch)
	}
	if got := metricValue(t, ts, "sage_daemon_audit_write_errors_total"); int(got) != lost {
		t.Fatalf("sage_daemon_audit_write_errors_total = %v, writer refused %d records in %d writes", got, lost, fails)
	}
	err := d.Stop()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Stop() = %v, want the first audit write error", err)
	}
}

// TestDaemonBodyLimits: a roster over the body limit is refused with a 413
// and a structured error before it is decoded in full, and the example
// roster still gets a 201.
func TestDaemonBodyLimits(t *testing.T) {
	_, ts := startDaemon(t, Options{StartPaused: true})
	huge := testRoster()
	huge.Name = strings.Repeat("x", maxRosterBytes)
	var buf bytes.Buffer
	if err := apiv1.EncodeRoster(&buf, huge); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize roster: status %d, want 413", resp.StatusCode)
	}
	if er := decodeBody[apiv1.ErrorResponse](t, resp); er.Error == "" {
		t.Fatal("oversize roster: 413 without an error message")
	}
	resp = postJSON(t, ts.URL+"/api/v1/clock", map[string]string{"action": strings.Repeat("x", maxClockBytes)})
	if code := statusOf(t, resp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize clock action: status %d, want 413", code)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "multijob", "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if code := statusOf(t, resp); code != http.StatusCreated {
		t.Fatalf("example roster: status %d, want 201", code)
	}
}
