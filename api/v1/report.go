package apiv1

// Report wire types: the JSON shapes of a job's summary, a finished
// multi-job report, and the live status rows GET /api/v1/jobs serves. The
// scheduler builds them from its in-memory jobs and reports in
// internal/sched (sched.Scheduler.Status, sched.MultiReport.Wire) so this
// package stays pure wire; both the daemon and `sagesim -jobs-file
// -report-json` emit through them.

// Summary is the wire form of a latency/completion distribution in seconds.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// RunReport is the wire summary of one finished single-job run (the
// HTTP-facing subset of core.Report).
type RunReport struct {
	Windows     int     `json:"windows"`
	Incomplete  int     `json:"incomplete"`
	TotalEvents int64   `json:"total_events"`
	TotalBytes  int64   `json:"total_bytes"`
	TotalCost   float64 `json:"total_cost"`
	EgressCost  float64 `json:"egress_cost"`
	VMSeconds   float64 `json:"vm_seconds"`
	Latency     Summary `json:"latency"`
}

// JobReport is one job's row in a finished multi-job report.
type JobReport struct {
	Name      string `json:"name"`
	Tenant    string `json:"tenant"`
	Priority  int    `json:"priority,omitempty"`
	JobID     int    `json:"job_id"`
	Cancelled bool   `json:"cancelled,omitempty"`
	// Arrived/Admitted/Finished are virtual-time instants; Wait and
	// Completion are the derived queue delay and arrival-to-finish span.
	Arrived     Duration   `json:"arrived"`
	Admitted    Duration   `json:"admitted"`
	Finished    Duration   `json:"finished"`
	Wait        Duration   `json:"wait"`
	Completion  Duration   `json:"completion"`
	Preemptions int        `json:"preemptions,omitempty"`
	Report      *RunReport `json:"report,omitempty"`
}

// MultiReport is the wire form of a finished roster run.
type MultiReport struct {
	Policy        string      `json:"policy"`
	MaxConcurrent int         `json:"max_concurrent"`
	Jobs          []JobReport `json:"jobs"`
	Makespan      Duration    `json:"makespan"`
	Completion    Summary     `json:"completion"`
	TotalEvents   int64       `json:"total_events"`
	TotalBytes    int64       `json:"total_bytes"`
	TotalCost     float64     `json:"total_cost"`
	TotalEgress   float64     `json:"total_egress"`
	TotalVMSecs   float64     `json:"total_vm_seconds"`
	// Fingerprint is the FNV-1a hash over every deterministic per-job field
	// (cancelled rows excluded), hex-encoded. Two runs of the same surviving
	// roster agree on it iff the scheduler behaved identically.
	Fingerprint string `json:"fingerprint"`
}

// JobStatus is one live row of GET /api/v1/jobs: queue state plus running
// spend, readable while the simulation advances.
type JobStatus struct {
	Name     string `json:"name"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`
	// State is submitted|queued|running|paused|done|cancelled.
	State string `json:"state"`
	// JobID is the engine-assigned id, -1 until the job is admitted.
	JobID       int      `json:"job_id"`
	Arrived     Duration `json:"arrived,omitempty"`
	Admitted    Duration `json:"admitted,omitempty"`
	Finished    Duration `json:"finished,omitempty"`
	EstDuration Duration `json:"est_duration,omitempty"`
	EstEgress   float64  `json:"est_egress,omitempty"`
	Preemptions int      `json:"preemptions,omitempty"`
	// Windows/Cost/Egress are live: what the job has completed and spent so
	// far at the snapshot instant.
	Windows int     `json:"windows"`
	Cost    float64 `json:"cost"`
	Egress  float64 `json:"egress"`
}

// JobList is the body of GET /api/v1/jobs.
type JobList struct {
	// Now is the virtual clock at the snapshot.
	Now  Duration    `json:"now"`
	Jobs []JobStatus `json:"jobs"`
}

// SubmitResponse is the body of a successful POST /api/v1/jobs.
type SubmitResponse struct {
	// Now is the virtual clock at submission.
	Now Duration `json:"now"`
	// Submitted lists the accepted job names in roster order.
	Submitted []string `json:"submitted"`
}

// Clock is the body of GET /api/v1/clock and the response to clock actions.
type Clock struct {
	Now    Duration `json:"now"`
	Paused bool     `json:"paused"`
	// Fired counts simulation events executed so far.
	Fired uint64 `json:"fired"`
}

// ClockAction is the body of POST /api/v1/clock.
type ClockAction struct {
	// Action is "pause" or "resume".
	Action string `json:"action"`
}
