package sched

import (
	"fmt"
	"hash/fnv"
	"time"

	"sage/internal/core"
	"sage/internal/stats"
)

// JobReport is one job's line in the multi-job report: queue timing plus the
// underlying run report.
type JobReport struct {
	Name     string
	Tenant   string
	Priority int
	// JobID is the engine-assigned id, the key trace events, metric labels
	// and netsim per-job egress are attributed under (-1 for jobs cancelled
	// before admission).
	JobID int
	// Cancelled marks a job withdrawn by Scheduler.Cancel; its row carries
	// no Report and is excluded from the aggregates and the fingerprint.
	Cancelled bool
	// Arrived / Admitted / Finished are virtual-time instants.
	Arrived, Admitted, Finished time.Duration
	// Wait is the admission queue delay; Completion is arrival → finish,
	// the metric completion-time curves plot.
	Wait, Completion time.Duration
	// Preemptions counts distinct transfer pauses the job suffered.
	Preemptions int
	// Report is the job's full single-job report.
	Report *core.Report
}

// MultiReport is the outcome of one Scheduler.Run: per-job rows in
// submission order plus roster-wide aggregates.
type MultiReport struct {
	Policy        string
	MaxConcurrent int
	Jobs          []JobReport
	// Makespan is the engine-clock instant the last job finished: it counts
	// from the engine's time zero, not from scheduler start, so whatever the
	// engine ran before Run (a monitor warm-up, say) is part of it.
	Makespan time.Duration
	// Completion summarizes per-job completion times in seconds.
	Completion stats.Summary
	// Aggregates over every job.
	TotalEvents    int64
	TotalBytes     int64
	TotalCost      float64
	TotalEgress    float64
	TotalVMSeconds float64
}

// report assembles the MultiReport after every job finished.
func (s *Scheduler) report() *MultiReport {
	m := &MultiReport{Policy: s.opt.Policy.Name(), MaxConcurrent: s.opt.MaxConcurrent}
	comps := make([]float64, 0, len(s.jobs))
	for _, j := range s.jobs {
		jr := JobReport{
			Name: j.spec.Name, Tenant: j.spec.Tenant, Priority: j.spec.Priority,
			JobID:     -1,
			Cancelled: j.state == jobCancelled,
			Arrived:   j.arrivedAt,
			Admitted:  j.admittedAt,
			Finished:  j.finishedAt,
			Wait:      j.admittedAt - j.arrivedAt,
			// Nothing clamps Completion, yet it is never shorter than the
			// job's whole windows: a run finishes only once its last window
			// has committed, and its windows close on the tumbling grid from
			// admission on.
			Completion:  j.finishedAt - j.arrivedAt,
			Preemptions: j.preemptions,
			Report:      j.rep,
		}
		if j.run != nil {
			jr.JobID = j.run.ID()
		}
		if jr.Cancelled {
			// A cancelled row keeps its raw instants but contributes nothing
			// to the aggregates; Wait/Completion would be nonsense for jobs
			// withdrawn before admission or arrival.
			jr.Wait, jr.Completion = 0, 0
			m.Jobs = append(m.Jobs, jr)
			continue
		}
		if jr.Finished > m.Makespan {
			m.Makespan = jr.Finished
		}
		comps = append(comps, jr.Completion.Seconds())
		m.TotalEvents += j.rep.TotalEvents
		m.TotalBytes += j.rep.TotalBytes
		m.TotalCost += j.rep.TotalCost
		m.TotalEgress += j.rep.EgressCost
		m.TotalVMSeconds += j.rep.VMSeconds
		m.Jobs = append(m.Jobs, jr)
	}
	m.Completion = stats.Summarize(comps)
	return m
}

// Fingerprint hashes every deterministic field of the report — per-job
// timing, windows, bytes, costs, preemption counts — into one FNV-1a value.
// Two runs of the same roster agree on this iff the scheduler behaved
// identically, which is the property the shard-count determinism tests pin.
func (m *MultiReport) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "policy=%s cap=%d\n", m.Policy, m.MaxConcurrent)
	for _, j := range m.Jobs {
		if j.Cancelled {
			// Cancelled rows are excluded so a roster with a job cancelled
			// before arrival fingerprints identically to the surviving roster
			// run on its own — the property the daemon e2e test pins.
			continue
		}
		fmt.Fprintf(h, "%s|%s|p%d|id%d|%d|%d|%d|w%d|inc%d|e%d|b%d|c%.6f|eg%.6f|vm%.6f|pre%d\n",
			j.Name, j.Tenant, j.Priority, j.JobID,
			int64(j.Arrived), int64(j.Admitted), int64(j.Finished),
			j.Report.Windows, j.Report.Incomplete,
			j.Report.TotalEvents, j.Report.TotalBytes,
			j.Report.TotalCost, j.Report.EgressCost, j.Report.VMSeconds,
			j.Preemptions)
	}
	return h.Sum64()
}

// Table renders the per-job rows as an experiment-style table.
func (m *MultiReport) Table(title string) *stats.Table {
	tb := stats.NewTable(title,
		"job", "tenant", "prio", "wait", "completion", "windows", "events",
		"bytes", "cost", "egress $", "VM-s", "preempts")
	for _, j := range m.Jobs {
		if j.Cancelled {
			tb.Add(j.Name, j.Tenant, fmt.Sprint(j.Priority),
				"-", "cancelled", "-", "-", "-", "-", "-", "-",
				fmt.Sprint(j.Preemptions))
			continue
		}
		tb.Add(j.Name, j.Tenant, fmt.Sprint(j.Priority),
			fmtDur(j.Wait), fmtDur(j.Completion),
			fmt.Sprint(j.Report.Windows), fmt.Sprint(j.Report.TotalEvents),
			stats.FmtBytes(j.Report.TotalBytes), stats.FmtMoney(j.Report.TotalCost),
			stats.FmtMoney(j.Report.EgressCost),
			fmt.Sprintf("%.1f", j.Report.VMSeconds),
			fmt.Sprint(j.Preemptions))
	}
	return tb
}

// fmtDur renders a duration with stable sub-second precision for tables.
func fmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }
