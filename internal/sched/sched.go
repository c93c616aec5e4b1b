// Package sched is the multi-job scheduler: it admits, places and runs N
// concurrent core jobs inside one simulated world, so jobs genuinely contend
// for link bandwidth (their flows share the netsim max-min allocation) and
// for per-site VM slots (their transfers draw from the same worker pools).
// Admission order is pluggable (FIFO, fair-share by egress cost, shortest
// expected job first); priority preemption pauses a lower-priority job's
// in-flight transfers through the transfer ledger machinery and resumes them
// from the acknowledged chunk set when the preemptor finishes. Everything is
// deterministic: the same roster produces a byte-identical MultiReport at
// any event-core shard count.
package sched

import (
	"errors"
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/simtime"
	"sage/internal/workload"
)

// JobSpec wraps a core job with the scheduling metadata the queue needs.
type JobSpec struct {
	// Name labels the job in the MultiReport (must be unique per scheduler).
	Name string
	// Tenant groups jobs for fair-share accounting (default: the job name).
	Tenant string
	// Priority orders admission classes; higher admits first. With
	// Options.Preempt, a running job also pauses the transfers of every
	// running job of strictly lower priority.
	Priority int
	// Arrival is the submission instant, offset from scheduler start.
	Arrival time.Duration
	// Duration is the job's stream duration once admitted.
	Duration time.Duration
	// Spec is the underlying streaming job.
	Spec core.JobSpec
}

// Options configures a Scheduler.
type Options struct {
	// MaxConcurrent is the admission cap: jobs running at once (default 4).
	MaxConcurrent int
	// Policy picks the next pending job when a slot frees (default FIFO).
	Policy Policy
	// Tick is the completion-poll period (default 1s). Smaller ticks react
	// to finished jobs sooner at the cost of more scheduler events.
	Tick time.Duration
	// Preempt enables priority preemption of in-flight transfers.
	Preempt bool
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.Policy == nil {
		o.Policy = FIFO{}
	}
	if o.Tick <= 0 {
		o.Tick = time.Second
	}
	return o
}

type jobState int

const (
	jobSubmitted jobState = iota // waiting for its arrival instant
	jobQueued                    // arrived, waiting for admission
	jobRunning
	jobDone
	jobCancelled
)

// job is the scheduler's per-job bookkeeping.
type job struct {
	idx        int // submission order
	spec       JobSpec
	state      jobState
	arrivedAt  simtime.Time
	admittedAt simtime.Time
	finishedAt simtime.Time
	// estDur / estEgress are the model estimates frozen at arrival — the
	// inputs SJF and fair-share order by.
	estDur    time.Duration
	estEgress float64
	run       *core.JobRun
	rep       *core.Report
	// arrivalEv is the scheduled arrival, cancellable while the job is
	// still jobSubmitted.
	arrivalEv *simtime.Event
	// manual marks a user-requested Pause, which holds a running job's
	// transfers and keeps a queued job out of admission until Resume;
	// preemptions counts distinct policy pauses. Whether a running job's
	// transfers are held at all is its run's TransfersPaused.
	manual      bool
	preemptions int
}

// Scheduler runs a roster of jobs on one shared engine. Build with New,
// Submit every job, then Run once.
type Scheduler struct {
	e   *core.Engine
	opt Options

	jobs    []*job
	pending []*job // arrival order; policies pick out of order
	running []*job

	// charges is the fair-share ledger: tenant → predicted egress cost of
	// every job admitted so far.
	charges map[string]float64

	// byName addresses jobs for the live control surface (Cancel, Pause,
	// Resume); Submit enforces name uniqueness.
	byName map[string]*job

	// viewBuf / pickBuf are reused across dispatches so steady-state
	// scheduling allocates nothing.
	viewBuf []Candidate
	pickBuf []int

	// manualPauses counts jobs with manual set, so the reconcile pass can
	// keep its zero-work early return when preemption is off and nobody
	// asked for a pause.
	manualPauses int

	started bool
	// live marks a scheduler started with Open: the caller owns the clock
	// and Submit stays legal.
	live bool
	err  error
}

// New builds a scheduler over an engine. The engine must outlive the
// scheduler; its worker deployments and monitor are shared by every job.
func New(e *core.Engine, opt Options) *Scheduler {
	return &Scheduler{e: e, opt: opt.withDefaults(),
		charges: make(map[string]float64), byName: make(map[string]*job)}
}

// Submit queues a job description. Legal before Run, or at any time on a
// live scheduler (after Open), where the job's Arrival offset counts from
// the submission instant. Job names must be unique per scheduler.
func (s *Scheduler) Submit(spec JobSpec) error {
	if s.started && !s.live {
		return errors.New("sched: Submit after Run")
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("job%d", len(s.jobs))
	}
	if spec.Tenant == "" {
		spec.Tenant = spec.Name
	}
	if spec.Duration <= 0 {
		return fmt.Errorf("sched: job %q needs a positive duration", spec.Name)
	}
	if s.byName[spec.Name] != nil {
		return fmt.Errorf("sched: duplicate job name %q", spec.Name)
	}
	j := &job{idx: len(s.jobs), spec: spec}
	s.jobs = append(s.jobs, j)
	s.byName[spec.Name] = j
	if s.started {
		j.arrivalEv = s.e.Sched.After(spec.Arrival, func() { s.arrive(j) })
	}
	return nil
}

// Run schedules every submitted job's arrival, drives the simulation until
// all jobs complete (with a bounded grace period past the last stream end),
// and returns the multi-job report.
func (s *Scheduler) Run() (*MultiReport, error) {
	if s.started {
		return nil, errors.New("sched: Run called twice")
	}
	s.started = true
	if len(s.jobs) == 0 {
		return nil, errors.New("sched: no jobs submitted")
	}
	var horizon time.Duration
	for _, j := range s.jobs {
		horizon = max(horizon, j.spec.Arrival+j.spec.Duration)
	}
	tick := s.start()
	defer tick.Stop()
	s.e.Sched.RunFor(horizon)
	for grace := 0; !s.allDone() && s.err == nil && grace < 100000; grace++ {
		s.e.Sched.RunFor(time.Second)
	}
	if s.err != nil {
		return nil, s.err
	}
	if !s.allDone() {
		return nil, errors.New("sched: jobs did not complete within the grace bound")
	}
	return s.report(), nil
}

// start schedules the arrival of every job submitted so far, then installs
// the admission tick. Run and Open share it, so a live roster replays the
// exact event order a batch Run of the same roster produces.
func (s *Scheduler) start() *simtime.Ticker {
	for _, j := range s.jobs {
		j.arrivalEv = s.e.Sched.After(j.spec.Arrival, func() { s.arrive(j) })
	}
	return s.e.Sched.NewTicker(s.opt.Tick, func(now simtime.Time) { s.Step(now) })
}

// arrive moves a job into the admission queue and immediately tries to
// dispatch, so an empty scheduler admits at the arrival instant rather than
// the next tick.
func (s *Scheduler) arrive(j *job) {
	now := s.e.Sched.Now()
	j.state = jobQueued
	j.arrivedAt = now
	j.estDur, j.estEgress = s.estimate(j.spec)
	s.pending = append(s.pending, j)
	s.Step(now)
}

// Step is one scheduling round: reap finished jobs, admit pending ones into
// free slots, and reconcile preemption. It runs on every tick and every
// arrival; steady state (nothing to reap or admit) allocates nothing.
func (s *Scheduler) Step(now simtime.Time) {
	for i := 0; i < len(s.running); {
		j := s.running[i]
		if !j.run.Done() {
			i++
			continue
		}
		j.rep = j.run.Finalize()
		j.finishedAt = j.run.CompletedAt()
		if j.finishedAt == 0 {
			j.finishedAt = now
		}
		j.state = jobDone
		s.running = append(s.running[:i], s.running[i+1:]...)
	}
	for len(s.running) < s.opt.MaxConcurrent && len(s.pending) > 0 && s.err == nil {
		k := s.pickNext(now)
		if k < 0 {
			break // every pending job is held by a manual pause
		}
		s.admit(k, now)
	}
	s.reconcilePreemption()
}

// pickNext selects the pending index to admit: the policy chooses among the
// highest-priority candidates only, so priority classes strictly order
// admission and the policy settles order within a class. Manually paused
// jobs are not candidates; -1 means nothing is admissible.
func (s *Scheduler) pickNext(now simtime.Time) int {
	top, any := 0, false
	for _, j := range s.pending {
		if j.manual {
			continue
		}
		if !any || j.spec.Priority > top {
			top, any = j.spec.Priority, true
		}
	}
	if !any {
		return -1
	}
	s.viewBuf = s.viewBuf[:0]
	s.pickBuf = s.pickBuf[:0]
	for i, j := range s.pending {
		if j.manual || j.spec.Priority != top {
			continue
		}
		s.viewBuf = append(s.viewBuf, Candidate{
			Name: j.spec.Name, Tenant: j.spec.Tenant,
			Priority: j.spec.Priority, Order: j.idx, Arrived: j.arrivedAt,
			EstDuration: j.estDur, EstEgressCost: j.estEgress,
		})
		s.pickBuf = append(s.pickBuf, i)
	}
	k := s.opt.Policy.Pick(View{Pending: s.viewBuf, Charges: s.charges, Now: now})
	if k < 0 || k >= len(s.pickBuf) {
		k = 0 // a broken policy degrades to FIFO-of-class, never crashes
	}
	return s.pickBuf[k]
}

// admit starts the pending job at index k and charges its tenant.
func (s *Scheduler) admit(k int, now simtime.Time) {
	j := s.pending[k]
	s.pending = append(s.pending[:k], s.pending[k+1:]...)
	run, err := s.e.Start(j.spec.Spec, j.spec.Duration)
	if err != nil {
		s.err = fmt.Errorf("sched: job %q: %w", j.spec.Name, err)
		return
	}
	j.run = run
	j.state = jobRunning
	j.admittedAt = now
	s.charges[j.spec.Tenant] += j.estEgress
	s.running = append(s.running, j)
}

// reconcilePreemption enforces the pause rules on the running set. With
// Options.Preempt, every running job of strictly lower priority than the
// highest running priority has its transfers paused (in-flight transfers
// abort with their ledgers kept); jobs at the top priority run unhindered,
// and when the preemptor finishes the next reconcile resumes the survivors
// from their ledgers. Manually paused jobs (Pause) stay paused regardless of
// priority. The steady state with preemption off and no manual pauses does
// no work.
func (s *Scheduler) reconcilePreemption() {
	if len(s.running) == 0 || (!s.opt.Preempt && s.manualPauses == 0) {
		return
	}
	top := s.running[0].spec.Priority
	for _, j := range s.running[1:] {
		if j.spec.Priority > top {
			top = j.spec.Priority
		}
	}
	for _, j := range s.running {
		want := j.manual || (s.opt.Preempt && j.spec.Priority < top)
		if paused := j.run.TransfersPaused(); want && !paused {
			if !j.manual {
				j.preemptions++
			}
			s.e.PauseJobTransfers(j.run)
		} else if !want && paused {
			s.e.ResumeJobTransfers(j.run)
		}
	}
}

func (s *Scheduler) allDone() bool {
	for _, j := range s.jobs {
		if j.state != jobDone && j.state != jobCancelled {
			return false
		}
	}
	return true
}

// estWindowBytes predicts the bytes one source ships per window. Raw jobs
// are exact modulo rate variation; aggregated jobs carry one cell per key,
// whose population is unknown before the run, so the estimate assumes the
// generator default (100 keys) capped by the event count.
func estWindowBytes(j core.JobSpec, src core.SourceSpec) int64 {
	n := workload.EventCount(src.Rate, 0, j.Window)
	if j.ShipRaw {
		eb := src.EventBytes
		if eb <= 0 {
			eb = core.DefaultEventBytes
		}
		return int64(n)*eb + core.PartialOverheadBytes
	}
	keys := int64(100)
	if int64(n) < keys {
		keys = int64(n)
	}
	return keys*48 + core.PartialOverheadBytes
}

// estimate freezes a job's policy inputs at its arrival. dur, the SJF
// input, is the stream duration plus the predicted transfer backlog: if a
// source's per-window transfer time (the engine's dispatch-time Predict)
// exceeds the window, each window adds to the queue behind the link, so the
// job drains (windows-1)·overshoot past its last transfer. egress, the
// fair-share charge, is the predicted egress spend of the whole job at its
// sources' egress prices.
func (s *Scheduler) estimate(spec JobSpec) (dur time.Duration, egress float64) {
	j := spec.Spec
	if j.Window <= 0 {
		return spec.Duration, 0
	}
	nWin := max(int(spec.Duration/j.Window), 1)
	lanes := j.Lanes
	if lanes <= 0 {
		lanes = 2
	}
	var worst time.Duration
	for _, src := range j.Sources {
		if src.Site == j.Sink {
			continue
		}
		bytes := estWindowBytes(j, src)
		d := s.e.Predict(src.Site, j.Sink, bytes, lanes).Time
		if over := d - j.Window; over > 0 {
			d += time.Duration(nWin-1) * over
		}
		worst = max(worst, d)
		if site := s.e.Net.Topology().Site(src.Site); site != nil {
			egress += float64(nWin) * cloud.EgressCost(site, bytes)
		}
	}
	return spec.Duration + worst, egress
}
