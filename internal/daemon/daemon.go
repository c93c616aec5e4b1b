// Package daemon is the saged control plane: a long-running process that
// owns one simulated world and its multi-job scheduler, drives the virtual
// clock on a background goroutine, and exposes a versioned HTTP API to
// submit, inspect, pause, resume and cancel jobs while the simulation runs.
//
// Concurrency model: the driver goroutine is the only code that touches the
// engine and scheduler. It alternates between draining a command mailbox and
// driving the clock one quantum at a time, so every HTTP mutation or read
// executes at a safe point — between simulation events, never racing the
// event core. Two endpoints bypass the mailbox by construction: /metrics
// reads the atomic metrics registry and /api/v1/timeline reads the
// mutex-guarded flight recorder, both safe against a running simulation.
//
// The world is built lazily from the first posted roster through the exact
// scenario.BuildEngine path batch runs use, so a daemon-run roster is
// byte-identical to `sagesim -jobs-file` of the same document. Later rosters
// join the existing world: their world-level fields (topology, weather,
// workers, seed, scheduler) are ignored and their jobs are submitted to the
// live scheduler, arriving Arrival after the submission instant.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/obs"
	"sage/internal/scenario"
	"sage/internal/sched"
)

// Options configures a Daemon.
type Options struct {
	// Speed paces the virtual clock: virtual seconds advanced per wall
	// second. 0 (the default) runs as fast as possible.
	Speed float64
	// Quantum is the virtual-time slice driven between mailbox drains —
	// the granularity at which HTTP mutations take effect (default 1s).
	Quantum time.Duration
	// StartPaused holds the virtual clock until a clock resume action —
	// deterministic setup for tests and staged demos.
	StartPaused bool
	// Audit, when non-nil, receives the append-only JSONL audit log: one
	// apiv1.AuditRecord per line for every API mutation, every completed
	// transfer (predicted vs. actual cost/time) and every burst of route
	// planner activity. Records are buffered and written at every safe
	// point — after each command (before its caller is answered), after
	// each quantum, and in Stop — one write per flush, from the driver
	// goroutine and once more from Stop. A failed write loses the records
	// it carried and nothing else: the daemon keeps running, adds them to
	// sage_daemon_audit_write_errors_total, and Stop returns the first
	// error.
	Audit io.Writer
}

// ErrStopped is returned for API operations after Stop.
var ErrStopped = errors.New("daemon: stopped")

// command is one mailbox entry: a closure to run at the next safe point.
type command struct {
	fn   func()
	done chan struct{}
}

// Daemon owns one world and serves the control-plane API over it.
type Daemon struct {
	opt Options
	obs *obs.Observer
	aud *auditor
	// stageWorkers is the world's stage worker count (Engine.Shards);
	// stageRounds counts the parallel staging rounds it ran, advanced after
	// each quantum.
	stageWorkers obs.Gauge
	stageRounds  obs.Counter

	cmdC     chan command
	stopC    chan struct{}
	doneC    chan struct{}
	stopOnce sync.Once

	// Everything below is owned by the driver goroutine; handlers reach it
	// only through do().
	eng    *core.Engine
	sc     *sched.Scheduler
	seed   uint64
	paused bool
	// rounds is the engine's ShardRounds() at the end of the last quantum.
	rounds uint64
}

// New starts a daemon. It owns no world until the first roster arrives.
func New(opt Options) *Daemon {
	if opt.Quantum <= 0 {
		opt.Quantum = time.Second
	}
	ob := obs.NewObserver()
	d := &Daemon{
		opt:    opt,
		obs:    ob,
		cmdC:   make(chan command),
		stopC:  make(chan struct{}),
		doneC:  make(chan struct{}),
		paused: opt.StartPaused,
		stageWorkers: ob.Metrics.Gauge("sage_core_stage_workers",
			"stage workers the world's event core runs window draws and folds on").With(),
		stageRounds: ob.Metrics.Counter("sage_core_stage_rounds_total",
			"parallel staging rounds the event core ran").With(),
	}
	if opt.Audit != nil {
		d.aud = newAuditor(opt.Audit, ob.Metrics)
		ob.Subscribers = []obs.Subscriber{d.aud}
	}
	go d.loop()
	return d
}

// Stop halts the driver goroutine and writes the final audit record. It
// returns the first audit write error of the daemon's life, nil if every
// record was written. Idempotent; API calls after Stop fail with
// ErrStopped.
func (d *Daemon) Stop() error {
	d.stopOnce.Do(func() { close(d.stopC) })
	<-d.doneC
	// The driver is dead (the doneC receive orders us after its last write),
	// so reading the clock and writing the log are race-free here.
	if d.aud == nil {
		return nil
	}
	now := time.Duration(0)
	if d.eng != nil {
		now = d.eng.Sched.Now()
	}
	d.aud.api(now, "shutdown", "", "")
	d.aud.flush()
	return d.aud.err
}

// do runs fn on the driver goroutine at the next safe point and waits for
// it to finish. Returns ErrStopped if the daemon shut down first.
func (d *Daemon) do(fn func()) error {
	c := command{fn: fn, done: make(chan struct{})}
	select {
	case d.cmdC <- c:
	case <-d.stopC:
		return ErrStopped
	}
	select {
	case <-c.done:
		return nil
	case <-d.doneC:
		return ErrStopped
	}
}

// loop is the driver: drain the mailbox, drive one quantum, repeat. With no
// world, a paused clock, or no runnable jobs (everything finished, cancelled
// or manually paused) it blocks on the mailbox instead of spinning.
func (d *Daemon) loop() {
	defer close(d.doneC)
	for {
		for { // drain every queued command at this safe point
			select {
			case c := <-d.cmdC:
				d.serve(c)
				continue
			default:
			}
			break
		}
		select {
		case <-d.stopC:
			return
		default:
		}
		if d.eng == nil || d.paused || d.sc.Runnable() == 0 {
			select {
			case c := <-d.cmdC:
				d.serve(c)
			case <-d.stopC:
				return
			}
			continue
		}
		d.eng.Sched.RunFor(d.opt.Quantum)
		rounds := d.eng.ShardRounds()
		d.stageRounds.Add(int64(rounds - d.rounds))
		d.rounds = rounds
		if d.aud != nil {
			d.aud.plannerRow(d.eng.Sched.Now())
			d.aud.flush()
		}
		d.pace()
	}
}

// serve runs one command at a safe point, writes the audit records it made
// and answers its caller.
func (d *Daemon) serve(c command) {
	c.fn()
	if d.aud != nil {
		d.aud.flush()
	}
	close(c.done)
}

// pace sleeps the wall-clock cost of one quantum at the configured speed,
// still serving commands while asleep.
func (d *Daemon) pace() {
	if d.opt.Speed <= 0 {
		return
	}
	timer := time.NewTimer(time.Duration(float64(d.opt.Quantum) / d.opt.Speed))
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return
		case c := <-d.cmdC:
			d.serve(c)
		case <-d.stopC:
			return // the loop observes stopC on its next turn
		}
	}
}

// httpError carries the status a handler should answer with.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func errStatus(status int, format string, args ...any) *httpError {
	return &httpError{status: status, err: fmt.Errorf(format, args...)}
}

// submit accepts one roster on the driver goroutine: validate everything,
// build the world if this is the first roster, then submit every job.
// Rejection is atomic — a roster with one bad job submits nothing.
func (d *Daemon) submit(ros *apiv1.Roster) (*apiv1.SubmitResponse, error) {
	if err := scenario.Validate(ros); err != nil {
		return nil, &httpError{status: 400, err: err}
	}
	if len(ros.Jobs) == 0 {
		return nil, errStatus(400, "daemon: only multi-job rosters (a \"jobs\" array) can be submitted")
	}
	// Build into locals and adopt only after the whole roster validates: a
	// rejected first roster must leave the daemon world-less, so the next
	// roster is still "first" and gets its arrivals scheduled through Open.
	// (A discarded engine is harmless — it registers no metric family, and
	// the only facts it emits are its monitor's learning probes, which the
	// probe counters take and the audit log ignores.)
	first := d.eng == nil
	eng, sc, seed := d.eng, d.sc, d.seed
	if first {
		eng = scenario.BuildEngine(ros, core.WithObservability(d.obs))
		sc = sched.New(eng, scenario.SchedOptions(ros.Scheduler))
		seed = ros.Seed
	}
	specs := scenario.BuildSchedJobs(seed, ros.Jobs, sc.Jobs())
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if err := eng.ValidateSpec(spec.Spec); err != nil {
			return nil, &httpError{status: 400, err: err}
		}
		if seen[spec.Name] || sc.Has(spec.Name) {
			return nil, errStatus(409, "daemon: duplicate job name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	// Every Submit precondition is established above — positive durations by
	// scenario.Validate, unique names by the seen/Has checks, live-mode
	// legality by construction — so a failure past this point cannot honour
	// the atomicity contract and is an invariant violation, not a 500.
	resp := &apiv1.SubmitResponse{Now: apiv1.Duration(eng.Sched.Now())}
	for _, sp := range specs {
		if err := sc.Submit(sp); err != nil {
			panic(fmt.Sprintf("daemon: pre-validated Submit of %q failed: %v", sp.Name, err))
		}
		resp.Submitted = append(resp.Submitted, sp.Name)
	}
	if first {
		if err := sc.Open(); err != nil {
			panic(fmt.Sprintf("daemon: Open of a fresh scheduler failed: %v", err))
		}
		d.eng, d.sc, d.seed = eng, sc, seed
		d.stageWorkers.Set(float64(eng.Shards()))
	}
	if d.aud != nil {
		d.aud.api(d.eng.Sched.Now(), "submit", "", fmt.Sprintf("%d job(s): %v", len(resp.Submitted), resp.Submitted))
	}
	return resp, nil
}

// jobOp runs one named control operation (cancel/pause/resume) on the
// driver goroutine and maps the scheduler's sentinel errors to statuses.
func (d *Daemon) jobOp(name, action string, op func(string) error) error {
	if op == nil {
		return errStatus(404, "daemon: no roster submitted yet")
	}
	if err := op(name); err != nil {
		status := 500
		switch {
		case errors.Is(err, sched.ErrUnknownJob):
			status = 404
		case errors.Is(err, sched.ErrJobFinished):
			status = 409
		}
		return &httpError{status: status, err: err}
	}
	if d.aud != nil {
		d.aud.api(d.eng.Sched.Now(), action, name, "")
	}
	return nil
}

// clock snapshots the virtual clock (driver goroutine).
func (d *Daemon) clock() apiv1.Clock {
	c := apiv1.Clock{Paused: d.paused}
	if d.eng != nil {
		c.Now = apiv1.Duration(d.eng.Sched.Now())
		c.Fired = d.eng.Sched.Fired()
	}
	return c
}
