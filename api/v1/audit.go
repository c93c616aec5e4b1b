package apiv1

// Audit wire types: the schema of saged's append-only JSONL audit log.
// Every line of the log is one AuditRecord; the audit-schema test in
// internal/daemon decodes the real log through this type, so the writer
// and this schema cannot drift.

// Audit record kinds.
const (
	// AuditAPI records an API mutation (submit, cancel, pause, resume,
	// clock actions, shutdown).
	AuditAPI = "api"
	// AuditTransfer records one planner decision and its outcome: the
	// predicted throughput/time/cost frozen at dispatch against the
	// actual transfer result.
	AuditTransfer = "transfer"
	// AuditPlanner records incremental route-planner activity since the
	// previous planner record (the planner calls in between, summed).
	AuditPlanner = "planner"
)

// AuditRecord is one line of the JSONL audit log.
type AuditRecord struct {
	// T is the virtual time of the event.
	T Duration `json:"t"`
	// Wall is the wall-clock time the line was written, RFC3339Nano.
	Wall string `json:"wall"`
	// Kind is AuditAPI, AuditTransfer or AuditPlanner.
	Kind string `json:"kind"`
	// Action/Job/Detail describe an API mutation (Kind == AuditAPI).
	Action string `json:"action,omitempty"`
	Job    string `json:"job,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Transfer carries a planner decision record (Kind == AuditTransfer).
	Transfer *TransferAudit `json:"transfer,omitempty"`
	// Planner carries a route-planner counter diff (Kind == AuditPlanner).
	Planner *PlannerAudit `json:"planner,omitempty"`
}

// TransferAudit is one transfer's predicted-vs-actual ledger entry: the
// route and sizing the planner chose, what the model predicted for it, and
// what the network actually delivered. A later optimizer reads these rows
// to refit the cost model against outcomes.
type TransferAudit struct {
	JobID    int    `json:"job_id"`
	From     string `json:"from"`
	To       string `json:"to"`
	Strategy string `json:"strategy"`
	Bytes    int64  `json:"bytes"`
	Lanes    int    `json:"lanes"`
	// Predicted* are frozen at dispatch from the monitor estimate and the
	// cost/time model; Actual* come from the transfer result.
	PredictedMBps float64  `json:"predicted_mbps"`
	PredictedTime Duration `json:"predicted_time"`
	PredictedCost float64  `json:"predicted_cost"`
	ActualMBps    float64  `json:"actual_mbps"`
	ActualTime    Duration `json:"actual_time"`
	ActualCost    float64  `json:"actual_cost"`
	NodesUsed     int      `json:"nodes_used"`
	Replans       int      `json:"replans,omitempty"`
}

// PlannerAudit is the route-planner activity since the previous planner
// record: the route.PlannerStats counters the planner calls in between
// advanced, summed call by call.
type PlannerAudit struct {
	Replans        uint64 `json:"replans"`
	CacheHits      uint64 `json:"cache_hits"`
	Repairs        uint64 `json:"repairs"`
	FullRecomputes uint64 `json:"full_recomputes"`
	DirtyEdges     uint64 `json:"dirty_edges"`
	ChangedEdges   uint64 `json:"changed_edges"`
}
