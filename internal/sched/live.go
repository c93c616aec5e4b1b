package sched

import (
	"errors"
	"fmt"

	apiv1 "sage/api/v1"
)

// This file is the scheduler's live control surface: the daemon-facing
// operations that mutate or inspect a roster while the simulation runs.
// Everything here must be called from the simulation goroutine (the saged
// daemon funnels HTTP mutations through its mailbox to guarantee that).

// Open starts the scheduler in live mode for a driver that owns the clock:
// arrivals for every job submitted so far are scheduled and the admission
// tick installed, then Open returns without advancing virtual time. Further
// Submits stay legal and take effect Arrival after the submission instant.
// The caller drives e.Sched and reads progress through Status and Report.
// Run and Open are mutually exclusive.
func (s *Scheduler) Open() error {
	if s.started {
		return errors.New("sched: Open after Run or Open")
	}
	s.started, s.live = true, true
	s.start()
	return nil
}

// Sentinel errors of the control operations, matchable with errors.Is.
var (
	// ErrUnknownJob reports a name no submitted job carries.
	ErrUnknownJob = errors.New("unknown job")
	// ErrJobFinished reports a control operation on a job that already
	// finished or was cancelled.
	ErrJobFinished = errors.New("job already finished")
)

// Has reports whether a job with the name was ever submitted.
func (s *Scheduler) Has(name string) bool { return s.byName[name] != nil }

// Jobs returns the number of submitted jobs (any state).
func (s *Scheduler) Jobs() int { return len(s.jobs) }

// find resolves a job name for the control operations.
func (s *Scheduler) find(name string) (*job, error) {
	j := s.byName[name]
	if j == nil {
		return nil, fmt.Errorf("sched: %w %q", ErrUnknownJob, name)
	}
	return j, nil
}

// Cancel withdraws a job. A job cancelled before its arrival never touches
// the world — the surviving roster runs byte-identically to a roster that
// never contained it. A queued job leaves the admission queue; a running
// job's transfers are aborted through the ledger machinery and its slot
// freed for the next pending job. Cancelling a finished job is an error;
// cancelling twice is a no-op. Admission charges already made to the
// job's tenant are not refunded.
func (s *Scheduler) Cancel(name string) error {
	j, err := s.find(name)
	if err != nil {
		return err
	}
	now := s.e.Sched.Now()
	switch j.state {
	case jobCancelled:
		return nil
	case jobDone:
		return fmt.Errorf("sched: %w: %q", ErrJobFinished, name)
	case jobSubmitted:
		s.e.Sched.Cancel(j.arrivalEv)
	case jobQueued:
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
	case jobRunning:
		s.e.CancelJob(j.run)
		for i, r := range s.running {
			if r == j {
				s.running = append(s.running[:i], s.running[i+1:]...)
				break
			}
		}
	}
	if j.manual {
		s.manualPauses--
	}
	j.manual = false
	j.state = jobCancelled
	j.finishedAt = now
	s.Step(now) // a freed slot admits the next pending job immediately
	return nil
}

// Pause suspends a job: a running job's in-flight transfers are aborted
// with their ledgers kept and subsequent ships parked; a queued or
// not-yet-arrived job is held out of admission. Pausing a paused job is a
// no-op; pausing a finished or cancelled job is an error.
func (s *Scheduler) Pause(name string) error {
	j, err := s.find(name)
	if err != nil {
		return err
	}
	switch j.state {
	case jobDone, jobCancelled:
		return fmt.Errorf("sched: %w: %q", ErrJobFinished, name)
	}
	if j.manual {
		return nil
	}
	j.manual = true
	s.manualPauses++
	if j.state == jobRunning {
		s.e.PauseJobTransfers(j.run)
	}
	return nil
}

// Resume lifts a manual pause: a running job replays its held transfers
// from their ledgers (unless priority preemption still demands the pause);
// a held queued job becomes admissible again. Resuming an unpaused job is a
// no-op; resuming a finished or cancelled job is an error.
func (s *Scheduler) Resume(name string) error {
	j, err := s.find(name)
	if err != nil {
		return err
	}
	switch j.state {
	case jobDone, jobCancelled:
		return fmt.Errorf("sched: %w: %q", ErrJobFinished, name)
	}
	if !j.manual {
		return nil
	}
	j.manual = false
	s.manualPauses--
	now := s.e.Sched.Now()
	if j.state == jobRunning && !s.opt.Preempt {
		// With preemption on, the reconcile inside Step decides whether the
		// job may actually run; without it the manual pause was the only
		// reason to hold the transfers.
		s.e.ResumeJobTransfers(j.run)
	}
	s.Step(now)
	return nil
}

func (j *job) stateString() string {
	switch j.state {
	case jobSubmitted:
		return "submitted"
	case jobQueued:
		if j.manual {
			return "paused"
		}
		return "queued"
	case jobRunning:
		if j.run.TransfersPaused() {
			return "paused"
		}
		return "running"
	case jobDone:
		return "done"
	default:
		return "cancelled"
	}
}

// Status snapshots every job's api/v1 row in submission order. Safe to
// call at any point between events; running jobs report live progress and
// spend.
func (s *Scheduler) Status() []apiv1.JobStatus {
	out := make([]apiv1.JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	return out
}

// StatusOf is the Status row of the job carrying name; false when no
// submitted job does.
func (s *Scheduler) StatusOf(name string) (apiv1.JobStatus, bool) {
	j := s.byName[name]
	if j == nil {
		return apiv1.JobStatus{}, false
	}
	return j.status(), true
}

// Runnable counts jobs neither finished, cancelled nor held by a manual
// pause — the jobs for which advancing the clock can make progress. Zero
// while some job is unfinished means every surviving job is manually
// paused: pausing already aborted any in-flight transfers, so driving the
// clock would only burn the admission tick until a Resume or Cancel changes
// the answer.
func (s *Scheduler) Runnable() int {
	n := 0
	for _, j := range s.jobs {
		if j.state == jobDone || j.state == jobCancelled || j.manual {
			continue
		}
		n++
	}
	return n
}

// Report assembles the multi-job report of a live scheduler. It requires
// every job to have finished or been cancelled; Run-driven schedulers get
// their report from Run itself.
func (s *Scheduler) Report() (*MultiReport, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.allDone() {
		return nil, errors.New("sched: jobs still active")
	}
	return s.report(), nil
}
