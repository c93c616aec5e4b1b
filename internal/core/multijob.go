package core

import (
	"cmp"
	"slices"

	"sage/internal/simtime"
)

// This file is the engine's multi-job surface: the per-run identity,
// accounting and preemption hooks the sched package builds on. A single-job
// engine never touches any of it beyond the zero-valued fields.

// ID returns the run's engine-assigned job number (Start order, first job 0).
func (r *JobRun) ID() int { return r.id }

// CompletedAt returns the virtual time Done() first became true, or 0 while
// the job is still running.
func (r *JobRun) CompletedAt() simtime.Time { return r.completedAt }

// Finalize computes and returns the run's report. Idempotent; Engine.Wait
// calls it implicitly, schedulers driving runs by hand call it directly.
func (r *JobRun) Finalize() *Report { return r.finalize() }

// SpentSoFar reports the run's accumulated total and egress cost, readable
// mid-run — the live signal fair-share admission charges tenants by.
func (r *JobRun) SpentSoFar() (cost, egress float64) {
	return r.rep.TotalCost, r.rep.EgressCost
}

// noteDone records the completion instant the first time Done() flips true.
// Called at every place processed or inflight changes.
func (r *JobRun) noteDone(now simtime.Time) {
	if r.completedAt == 0 && r.Done() {
		r.completedAt = now
	}
}

// untrack drops a live partial whose transfer finished or was aborted from
// the live set.
func (r *JobRun) untrack(p *partial) {
	i := slices.Index(r.live, p)
	last := len(r.live) - 1
	r.live[i] = r.live[last]
	r.live[last] = nil
	r.live = r.live[:last]
	p.h = nil
}

// liveOf returns source slot i's partials in flight on acknowledged
// transfers, in window order.
func (r *JobRun) liveOf(i int) []*partial {
	var out []*partial
	for _, p := range r.live {
		if p.s.idx == i {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *partial) int { return cmp.Compare(a.Window.Start, b.Window.Start) })
	return out
}

// dropHeld withdraws the held ships of source slot i (every source when
// i < 0) together with the provisional inflight counts they own. A dropped
// ship that had been dispatched keeps its acknowledged bytes as the
// partial's abortAcked, and a partial no batch log keeps goes to its pool.
func (r *JobRun) dropHeld(i int) {
	kept := r.held[:0]
	for _, p := range r.held {
		if i >= 0 && p.s.idx != i {
			kept = append(kept, p)
			continue
		}
		r.inflight--
		if p.resume != nil {
			p.abortAcked = p.resume.AckedBytes()
		}
		p.held, p.resume = false, nil
		p.release()
	}
	clear(r.held[len(kept):])
	r.held = kept
}

// PauseJobTransfers preempts a run's wide-area activity: every in-flight
// acknowledged transfer is aborted with its ledger snapshotted, and every
// subsequent ship is parked until ResumeJobTransfers. Acknowledged chunks
// stay acknowledged — the resume replays only the remainder, so preemption
// wastes at most one chunk per lane, not the transfer. Resilient runs pause
// the same way: checkpoints taken meanwhile carry no ledgers, and a held ship
// whose source or sink is declared dead is dropped and re-shipped from the
// batch log by recovery (into the hold again if the pause still stands).
func (e *Engine) PauseJobTransfers(run *JobRun) {
	if run.xferPaused {
		return
	}
	run.xferPaused = true
	for _, p := range run.live {
		led := p.h.Ledger()
		e.Mgr.Abort(p.h)
		e.Mgr.Recycle(p.h)
		// The dispatch already counted this ship inflight; moving it from
		// live to held transfers that count to the held entry untouched.
		p.h, p.held, p.resume = nil, true, &led
		run.held = append(run.held, p)
	}
	clear(run.live)
	run.live = run.live[:0]
}

// TransfersPaused reports whether PauseJobTransfers holds the run's ships.
func (r *JobRun) TransfersPaused() bool { return r.xferPaused }

// Cancelled reports whether CancelJob withdrew the run.
func (r *JobRun) Cancelled() bool { return r.cancelled }

// WindowsDone reports the number of globally completed windows so far —
// live progress for status endpoints.
func (r *JobRun) WindowsDone() int { return r.rep.Windows }

// CancelJob withdraws a run in place: every in-flight acknowledged transfer
// is aborted (Abort never fires the completion callback, so their dispatch
// inflight counts are released by hand), held ships are dropped with the
// provisional counts they own, and the run's remaining window closes become
// no-ops. A resilient run's guard stops with it: no further checkpoints,
// recovery or failover. The run reads as Done immediately; its report is
// abandoned wherever it was.
func (e *Engine) CancelJob(run *JobRun) {
	if run.cancelled {
		return
	}
	run.cancelled = true
	// Abort whatever is in flight into the hold (a no-op when a pause already
	// did), then drop the hold with the inflight counts it owns.
	e.PauseJobTransfers(run)
	run.dropHeld(-1)
	run.xferPaused = false
	if run.guard != nil {
		run.guard.stop()
	}
	// Future commitWindow calls return before counting, so clamping expected
	// to processed makes Done() permanent (datagram sends of lossy jobs may
	// keep inflight counts until they land; Done completes when they drain).
	run.expected = run.processed
	run.noteDone(e.Sched.Now())
}

// ResumeJobTransfers lifts a pause and replays every held ship in hold
// order, resuming preempted transfers from their ledgers.
func (e *Engine) ResumeJobTransfers(run *JobRun) {
	if !run.xferPaused {
		return
	}
	run.xferPaused = false
	held := run.held
	run.held = nil
	for _, p := range held {
		run.inflight-- // ship re-counts the dispatch
		resume := p.resume
		p.held, p.resume = false, nil
		e.ship(run, p, resume)
	}
}
