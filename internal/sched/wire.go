package sched

import (
	"fmt"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/stats"
)

// Wire converters to the api/v1 types: the one place the scheduler's
// in-memory jobs and reports become JSON shapes. Both the saged daemon and
// `sagesim -report-json` emit through these.

func wireSummary(s stats.Summary) apiv1.Summary {
	return apiv1.Summary{
		N: s.N, Mean: s.Mean, Min: s.Min, Max: s.Max,
		P50: s.P50, P95: s.P95, P99: s.P99,
	}
}

func wireRun(r *core.Report) *apiv1.RunReport {
	if r == nil {
		return nil
	}
	return &apiv1.RunReport{
		Windows: r.Windows, Incomplete: r.Incomplete,
		TotalEvents: r.TotalEvents, TotalBytes: r.TotalBytes,
		TotalCost: r.TotalCost, EgressCost: r.EgressCost,
		VMSeconds: r.VMSeconds, Latency: wireSummary(r.LatencySummary),
	}
}

// status is the job's live api/v1 row at the current instant.
func (j *job) status() apiv1.JobStatus {
	st := apiv1.JobStatus{
		Name: j.spec.Name, Tenant: j.spec.Tenant, Priority: j.spec.Priority,
		State: j.stateString(), JobID: -1,
		Arrived:     apiv1.Duration(j.arrivedAt),
		Admitted:    apiv1.Duration(j.admittedAt),
		Finished:    apiv1.Duration(j.finishedAt),
		EstDuration: apiv1.Duration(j.estDur),
		EstEgress:   j.estEgress,
		Preemptions: j.preemptions,
	}
	if j.run != nil {
		st.JobID = j.run.ID()
		st.Windows = j.run.WindowsDone()
		st.Cost, st.Egress = j.run.SpentSoFar()
	}
	return st
}

// Wire converts the finished report to its api/v1 wire form, including the
// hex-encoded fingerprint.
func (m *MultiReport) Wire() *apiv1.MultiReport {
	w := &apiv1.MultiReport{
		Policy:        m.Policy,
		MaxConcurrent: m.MaxConcurrent,
		Makespan:      apiv1.Duration(m.Makespan),
		Completion:    wireSummary(m.Completion),
		TotalEvents:   m.TotalEvents,
		TotalBytes:    m.TotalBytes,
		TotalCost:     m.TotalCost,
		TotalEgress:   m.TotalEgress,
		TotalVMSecs:   m.TotalVMSeconds,
		Fingerprint:   fmt.Sprintf("%016x", m.Fingerprint()),
	}
	for _, j := range m.Jobs {
		w.Jobs = append(w.Jobs, apiv1.JobReport{
			Name: j.Name, Tenant: j.Tenant, Priority: j.Priority,
			JobID: j.JobID, Cancelled: j.Cancelled,
			Arrived:     apiv1.Duration(j.Arrived),
			Admitted:    apiv1.Duration(j.Admitted),
			Finished:    apiv1.Duration(j.Finished),
			Wait:        apiv1.Duration(j.Wait),
			Completion:  apiv1.Duration(j.Completion),
			Preemptions: j.Preemptions,
			Report:      wireRun(j.Report),
		})
	}
	return w
}
