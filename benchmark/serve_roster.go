package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/daemon"
	"sage/internal/scenario"
	"sage/internal/sched"
)

// serve_roster: the real saged binary, started paused with the audit log on,
// receives one generated roster over HTTP and runs it while two closed-loop
// clients read job status, scrape /metrics and cancel far-future decoy jobs.
// It is the only workload that crosses daemon, api/v1, scenario, obs and the
// audit writer, with reads beside writes.
//
// Closed loop, because operators and CLIs wait for a reply; two clients with
// one keep-alive connection each, because the host has two cores.
const (
	serveAggJobs     = 6
	serveRawJobs     = 2
	serveDecoys      = 20
	serveAggRate     = 8000.0 // events/s per source: the calibration dial for a quantum's wall cost
	serveAggKeys     = 2000
	serveAggWindow   = 10 * time.Second
	serveRawRate     = 2000.0
	serveRawWindow   = 30 * time.Second
	serveJobDuration = 90 * time.Second
	serveClients     = 2
	serveThink       = 20 * time.Millisecond
	serveSlowRequest = 2 * time.Second  // a slower reply counts as failed
	serveUnitTimeout = 90 * time.Second // the clients give up on a daemon that never finishes
	serveSink        = "NUS"
)

var serveSources = []string{"NEU", "WEU", "SUS", "EUS", "WUS"}

var serveRoster = &workloadDef{
	name: "serve_roster",
	why: "the saged binary over HTTP (submit, resume, status reads, /metrics scrapes and decoy cancels beside a running " +
		"roster, audit on): daemon/api/scenario/obs changes and API latency show here only",
	prepare: func(c *runCtx) error {
		if _, err := serveReference(c); err != nil {
			return err
		}
		if c.tr != nil {
			return nil // traced units serve the daemon package in-process
		}
		var err error
		c.sagedBin, err = buildSaged(c.root)
		return err
	},
	unit: serveRun, // units check against the reference themselves; there is no verify step
}

// serveDocs generates the posted roster and the surviving roster (the same
// without decoys) the reference run executes.
func serveDocs(c *runCtx) (posted, surviving *apiv1.Roster, decoys []string) {
	aggDur := c.scaled(serveJobDuration, serveAggWindow)
	rawDur := c.scaled(serveJobDuration, serveRawWindow)
	var jobs []apiv1.MultiJobConfig
	for i := 0; i < serveAggJobs; i++ {
		jc := apiv1.JobConfig{
			Sink: serveSink, Window: apiv1.Duration(serveAggWindow), Agg: "mean",
			Strategy: "envaware", Lanes: 3, Duration: apiv1.Duration(aggDur),
		}
		for _, site := range serveSources {
			jc.Sources = append(jc.Sources, apiv1.SourceConfig{
				Site: site, Rate: serveAggRate, Keys: serveAggKeys, Skew: 1.2,
			})
		}
		jobs = append(jobs, apiv1.MultiJobConfig{
			JobConfig: jc,
			Name:      fmt.Sprintf("agg%d", i),
			Tenant:    fmt.Sprintf("t%d", i/2),
			Arrival:   apiv1.Duration(time.Duration(i) * 5 * time.Second),
		})
	}
	for i := 0; i < serveRawJobs; i++ {
		jc := apiv1.JobConfig{
			Sink: serveSink, Window: apiv1.Duration(serveRawWindow), Agg: "sum",
			Strategy: "parallel", Lanes: 3, ShipRaw: true, Duration: apiv1.Duration(rawDur),
			Sources: []apiv1.SourceConfig{
				{Site: serveSources[2*i], Rate: serveRawRate},
				{Site: serveSources[2*i+1], Rate: serveRawRate},
			},
		}
		jobs = append(jobs, apiv1.MultiJobConfig{
			JobConfig: jc,
			Name:      fmt.Sprintf("raw%d", i),
			Tenant:    fmt.Sprintf("t%d", i),
			Priority:  1,
			Arrival:   apiv1.Duration(time.Duration(i+1) * aggDur / 2),
		})
	}
	base := apiv1.Roster{
		Name: "serve_roster", Seed: c.seed,
		Scheduler: &apiv1.SchedulerConfig{MaxConcurrent: 3, Policy: "fair", Preempt: true},
	}
	sv := base
	sv.Jobs = append([]apiv1.MultiJobConfig(nil), jobs...)
	po := base
	po.Jobs = append([]apiv1.MultiJobConfig(nil), jobs...)
	for i := 0; i < serveDecoys; i++ {
		d := jobs[0]
		d.Name = fmt.Sprintf("decoy%02d", i)
		d.Tenant = "decoy"
		d.Arrival = apiv1.Duration((10000 + time.Duration(i)) * time.Hour)
		po.Jobs = append(po.Jobs, d)
		decoys = append(decoys, d.Name)
	}
	return &po, &sv, decoys
}

// serveRef is the in-process batch run of the surviving roster: what the
// daemon's report must equal.
type serveRef struct {
	wire      *apiv1.MultiReport
	latencies []float64
	multi     *sched.MultiReport
}

// serveReference computes the reference once per invocation, before any
// measurement starts.
func serveReference(c *runCtx) (*serveRef, error) {
	if c.serveRef != nil {
		return c.serveRef, nil
	}
	_, surviving, _ := serveDocs(c)
	res, err := scenario.Run(surviving)
	if err != nil {
		return nil, fmt.Errorf("serve_roster: reference run: %w", err)
	}
	ref := &serveRef{wire: res.Multi.Wire(), multi: res.Multi}
	for _, j := range res.Multi.Jobs {
		for _, l := range j.Report.Latencies {
			ref.latencies = append(ref.latencies, l.Seconds())
		}
	}
	c.serveRef = ref
	return ref, nil
}

// httpSample is one API request as a client saw it.
type httpSample struct {
	route  string
	start  time.Time
	dur    time.Duration
	failed bool
}

// server is a running daemon: the saged binary, or (traced runs) the daemon
// package on a listener inside this process so the CPU profile covers it.
type server struct {
	url  string
	stop func() (rssMB float64, err error)
}

// buildSaged compiles cmd/saged into the build directory, once per
// invocation and before anything is timed.
func buildSaged(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "saged")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/saged")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("serve_roster: go build ./cmd/saged: %v\n%s", err, b)
	}
	return out, nil
}

// startBinary starts saged paused on a free loopback port and waits until it
// reports its address.
func startBinary(bin, auditPath string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-paused"}
	if auditPath != "" {
		args = append(args, "-audit", auditPath)
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("serve_roster: start saged: %w", err)
	}
	// The reader hands over the first line, then drains until saged exits;
	// Wait may only be called once the pipe has been read to its end.
	lineC := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lineC <- sc.Text()
		} else {
			close(lineC)
		}
		for sc.Scan() {
		}
	}()
	kill := func() {
		cmd.Process.Kill()
		<-drained
		cmd.Wait()
	}
	var line string
	select {
	case line = <-lineC:
	case <-time.After(20 * time.Second):
		kill()
		return nil, errors.New("serve_roster: saged did not report its address within 20s")
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		kill()
		return nil, fmt.Errorf("serve_roster: unexpected first line from saged: %q", line)
	}
	pid := cmd.Process.Pid
	return &server{
		url: strings.TrimSpace(line[i+len(marker):]),
		stop: func() (float64, error) {
			rss, rssErr := peakRSSMB(pid)
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				cmd.Process.Kill() // no clean shutdown possible; do not leave it running
			}
			done := make(chan error, 1)
			go func() {
				<-drained
				done <- cmd.Wait()
			}()
			select {
			case err := <-done:
				if err != nil {
					return rss, fmt.Errorf("serve_roster: saged exit: %w", err)
				}
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-done
				return rss, errors.New("serve_roster: saged ignored SIGINT for 10s")
			}
			return rss, rssErr
		},
	}, nil
}

// startInProcess serves daemon.New + Handler on a real loopback listener in
// this process.
func startInProcess(auditPath string) (*server, error) {
	opt := daemon.Options{StartPaused: true}
	var auditFile *os.File
	if auditPath != "" {
		f, err := os.OpenFile(auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		auditFile = f
		opt.Audit = f
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := daemon.New(opt)
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns ErrServerClosed on Close
		close(served)
	}()
	return &server{
		url: "http://" + ln.Addr().String(),
		stop: func() (float64, error) {
			srv.Close()
			<-served
			d.Stop()
			if auditFile != nil {
				if err := auditFile.Close(); err != nil {
					return 0, err
				}
			}
			return 0, nil
		},
	}, nil
}

// apiClient is one closed-loop client: a single keep-alive connection.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (a *apiClient) close() { a.hc.CloseIdleConnections() }

// do issues one request, reads the whole body and returns the sample with
// the body. want is the expected status.
func (a *apiClient) do(route, method, path string, body []byte, want int) (httpSample, []byte) {
	s := httpSample{route: route, start: time.Now()}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		s.failed = true
		return s, nil
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		s.dur = time.Since(s.start)
		s.failed = true
		return s, nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.dur = time.Since(s.start)
	s.failed = err != nil || resp.StatusCode != want || s.dur > serveSlowRequest
	return s, b
}

// serveRun is one unit against the binary, or against the in-process daemon
// when the unit is traced.
func serveRun(c *runCtx) (*unit, error) {
	ref, err := serveReference(c)
	if err != nil {
		return nil, err
	}
	posted, _, decoys := serveDocs(c)
	var doc bytes.Buffer
	if err := apiv1.EncodeRoster(&doc, posted); err != nil {
		return nil, err
	}
	work := filepath.Join(c.root, ".bench_build", "serve")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	auditPath := ""
	if !c.noAudit {
		auditPath = filepath.Join(work, fmt.Sprintf("audit-%d.jsonl", os.Getpid()))
		os.Remove(auditPath)
		defer os.Remove(auditPath)
	}
	u := &unit{}
	u.count("apiv1.roster_bytes", float64(doc.Len()))
	parent := c.tr.current() // the unit's span: HTTP calls timed on client goroutines hang off it
	record := func(s httpSample) {
		u.http = append(u.http, s)
		c.tr.add(parent, "http "+s.route, s.start, s.dur)
	}

	// Set-up: process start → ready → roster accepted.
	t0 := time.Now()
	var srv *server
	if c.tr == nil {
		srv, err = startBinary(c.sagedBin, auditPath)
	} else {
		end := c.tr.begin("daemon.New+Handler")
		srv, err = startInProcess(auditPath)
		end()
	}
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	ctl := newAPIClient(srv.url)
	defer ctl.close()
	s, body := ctl.do("POST /api/v1/jobs", "POST", "/api/v1/jobs", doc.Bytes(), http.StatusCreated)
	record(s)
	if s.failed {
		return nil, fmt.Errorf("serve_roster: roster rejected: %s", body)
	}
	u.count("daemon.submit_ms", s.dur.Seconds()*1e3)
	u.setupS = time.Since(t0).Seconds()

	// The run: resume the clock, then the clients until every real job is done.
	t1 := time.Now()
	s, body = ctl.do("POST /api/v1/clock", "POST", "/api/v1/clock", []byte(`{"action":"resume"}`), http.StatusOK)
	record(s)
	var clock0 apiv1.Clock
	if s.failed || json.Unmarshal(body, &clock0) != nil {
		return nil, fmt.Errorf("serve_roster: clock resume failed: %s", body)
	}

	real := make(map[string]bool)
	var realNames []string
	for _, j := range ref.wire.Jobs {
		real[j.Name] = true
		realNames = append(realNames, j.Name)
	}
	deadline := t1.Add(serveUnitTimeout)
	var (
		mu        sync.Mutex
		doneAt    time.Time
		nextDecoy atomic.Int64
		stopFlag  atomic.Bool
		wg        sync.WaitGroup
		thinkNS   atomic.Int64
	)
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := newAPIClient(srv.url)
			defer cl.close()
			r := rand.New(rand.NewSource(int64(c.seed)*1000 + int64(ci)))
			var mine []httpSample
			for !stopFlag.Load() && time.Now().Before(deadline) {
				var s httpSample
				var body []byte
				switch p := r.Float64(); {
				case p < 0.60:
					s, body = cl.do("GET /api/v1/jobs", "GET", "/api/v1/jobs", nil, http.StatusOK)
					var l apiv1.JobList
					if !s.failed && json.Unmarshal(body, &l) == nil && allDone(l, real) {
						mu.Lock()
						if doneAt.IsZero() {
							doneAt = time.Now()
						}
						mu.Unlock()
						stopFlag.Store(true)
					}
				case p < 0.80:
					name := realNames[r.Intn(len(realNames))]
					s, _ = cl.do("GET /api/v1/jobs/{id}", "GET", "/api/v1/jobs/"+name, nil, http.StatusOK)
				case p < 0.95:
					s, _ = cl.do("GET /metrics", "GET", "/metrics", nil, http.StatusOK)
				default:
					i := int(nextDecoy.Add(1)) - 1
					if i >= len(decoys) {
						continue // every decoy is gone; draw again
					}
					s, _ = cl.do("DELETE /api/v1/jobs/{id}", "DELETE", "/api/v1/jobs/"+decoys[i], nil, http.StatusOK)
				}
				mine = append(mine, s)
				t := time.Now()
				time.Sleep(serveThink)
				thinkNS.Add(int64(time.Since(t)))
			}
			mu.Lock()
			for _, s := range mine {
				record(s)
			}
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	if doneAt.IsZero() {
		return nil, fmt.Errorf("serve_roster: the roster did not finish within %v of the clock resume", serveUnitTimeout)
	}
	u.wallS = doneAt.Sub(t1).Seconds()
	u.count("loadgen.think_ms", float64(thinkNS.Load())/1e6)

	// Outside the timed interval: withdraw the remaining decoys, fetch the
	// report, scrape the counters, stop the daemon.
	for i := int(nextDecoy.Load()); i < len(decoys); i++ {
		s, _ := ctl.do("DELETE /api/v1/jobs/{id}", "DELETE", "/api/v1/jobs/"+decoys[i], nil, http.StatusOK)
		if s.failed {
			u.opsFailed++
		}
	}
	s, body = ctl.do("GET /api/v1/report", "GET", "/api/v1/report", nil, http.StatusOK)
	if s.failed {
		return nil, fmt.Errorf("serve_roster: report: %s", body)
	}
	u.count("daemon.report_ms", s.dur.Seconds()*1e3)
	u.count("apiv1.report_bytes", float64(len(body)))
	var rep apiv1.MultiReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("serve_roster: report: %w", err)
	}
	if _, mbody := ctl.do("GET /metrics", "GET", "/metrics", nil, http.StatusOK); mbody != nil {
		promCounts(u, mbody)
	}
	if _, cbody := ctl.do("GET /api/v1/clock", "GET", "/api/v1/clock", nil, http.StatusOK); cbody != nil {
		var ck apiv1.Clock
		if json.Unmarshal(cbody, &ck) == nil {
			u.count("simtime.fired", float64(ck.Fired))
		}
	}
	if _, tbody := ctl.do("GET /api/v1/timeline", "GET", "/api/v1/timeline", nil, http.StatusOK); tbody != nil {
		var tl apiv1.TimelineDoc
		if json.Unmarshal(tbody, &tl) == nil {
			u.count("obs.timeline_spans", float64(len(tl.Spans)))
		}
	}
	stopped = true
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}
	u.rssMB = rss
	if auditPath != "" {
		if b, err := os.ReadFile(auditPath); err == nil {
			u.count("daemon.audit_records", float64(bytes.Count(b, []byte{'\n'})))
			u.count("daemon.audit_mb", float64(len(b))/1e6)
		}
	}

	// The clock is read from the report, not from the status reply that
	// noticed the end: with only decoys left the daemon races through
	// virtual time, so that reading overshoots.
	if quanta := (time.Duration(rep.Makespan) - time.Duration(clock0.Now)).Seconds(); quanta > 0 {
		u.count("daemon.quantum_wall_ms", u.wallS/quanta*1e3)
	}

	end := c.tr.begin("check")
	defer end()
	checkServeUnit(u, &rep, ref)
	for _, s := range u.http {
		u.opsExpected++
		if s.failed {
			u.opsFailed++
		}
	}
	return u, nil
}

// allDone reports whether every real (non-decoy) job in the list is done.
func allDone(l apiv1.JobList, real map[string]bool) bool {
	n := 0
	for _, j := range l.Jobs {
		if !real[j.Name] {
			continue
		}
		if j.State != "done" {
			return false
		}
		n++
	}
	return n == len(real)
}

// checkServeUnit compares the daemon's report with the reference run of the
// surviving roster and fills the unit's simulated outcome from it.
func checkServeUnit(u *unit, rep *apiv1.MultiReport, ref *serveRef) {
	u.fingerprint = rep.Fingerprint
	u.check(rep.Fingerprint == ref.wire.Fingerprint,
		"serve_roster: daemon fingerprint %s, batch run of the surviving roster %s",
		rep.Fingerprint, ref.wire.Fingerprint)
	u.events = rep.TotalEvents
	u.costUSD = rep.TotalCost
	byName := make(map[string]apiv1.JobReport)
	for _, j := range rep.Jobs {
		byName[j.Name] = j
	}
	latenciesAgree := true
	for _, want := range ref.wire.Jobs {
		got, ok := byName[want.Name]
		if !ok || got.Report == nil {
			u.check(false, "serve_roster: job %s missing from the daemon's report", want.Name)
			latenciesAgree = false
			continue
		}
		u.opsExpected += want.Report.Windows + want.Report.Incomplete
		u.opsFailed += got.Report.Incomplete
		if got.Report.Latency != want.Report.Latency {
			latenciesAgree = false
		}
		u.count("core.windows", float64(got.Report.Windows))
		u.count("core.windows_incomplete", float64(got.Report.Incomplete))
		u.count("stream.partial_mb", float64(got.Report.TotalBytes)/1e6)
		u.count("workload.events", float64(got.Report.TotalEvents))
	}
	u.check(latenciesAgree, "serve_roster: per-job latency summaries differ from the reference run")
	// The wire report carries latency summaries per job, not the samples;
	// once the summaries agree the reference run's samples are the daemon's.
	u.latencies = ref.latencies
	cancelled := 0
	for _, j := range rep.Jobs {
		if j.Cancelled {
			cancelled++
		}
	}
	u.check(cancelled == serveDecoys, "serve_roster: %d cancelled rows, want %d decoys", cancelled, serveDecoys)
	schedCounts(u, ref.multi)
}
