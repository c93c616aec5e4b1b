package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/obs"
)

// auditor writes the append-only JSONL audit log: one apiv1.AuditRecord per
// line. Records are encoded into a buffer and written out by flush, which the
// daemon calls at every safe point — after each command, after each quantum
// and in Stop — so a quantum's transfer and planner rows cost one write, not
// one each. Every method runs on the driver goroutine (the engine's event
// spine calls Observe synchronously during event processing, the daemon
// calls api and plannerRow between quanta), plus the final api call and
// flush from Stop after the driver is dead — so the encoder needs no lock.
type auditor struct {
	w io.Writer
	// enc encodes records into buf, which flush writes whole; pending counts
	// the records in it. (A json.Encoder on w itself would refuse every record
	// after its first failed write.)
	enc     *json.Encoder
	buf     bytes.Buffer
	pending int
	// plan is the planner row being folded from planner-call events; the
	// next plannerRow writes it.
	plan obs.PlanCounts
	// wall stamps records with wall-clock time; a test seam.
	wall func() time.Time
	// err is the first write error; writeErrs counts every lost record. A
	// failed flush loses the records it carried, the daemon keeps running,
	// and Stop reports err.
	err       error
	writeErrs obs.Counter
}

func newAuditor(w io.Writer, reg *obs.Registry) *auditor {
	a := &auditor{w: w, wall: time.Now,
		writeErrs: reg.Counter("sage_daemon_audit_write_errors_total",
			"audit records the log writer failed to take").With()}
	a.enc = json.NewEncoder(&a.buf)
	return a
}

func (a *auditor) record(rec apiv1.AuditRecord) {
	rec.Wall = a.wall().UTC().Format(time.RFC3339Nano)
	if err := a.enc.Encode(&rec); err != nil {
		a.lose(1, err)
		return
	}
	a.pending++
}

// flush writes the buffered records in one write. The records a failed write
// did not take whole are lost and counted.
func (a *auditor) flush() {
	if a.pending == 0 {
		return
	}
	if n, err := a.w.Write(a.buf.Bytes()); err != nil {
		a.lose(a.pending-bytes.Count(a.buf.Bytes()[:n], []byte{'\n'}), err)
	}
	a.buf.Reset()
	a.pending = 0
}

// lose counts records the log did not take and keeps the first error.
func (a *auditor) lose(records int, err error) {
	a.writeErrs.Add(int64(records))
	if a.err == nil {
		a.err = fmt.Errorf("daemon: audit write: %w", err)
	}
}

// api records one API mutation (submit, cancel, pause, resume, clock
// actions, shutdown).
func (a *auditor) api(now time.Duration, action, job, detail string) {
	a.record(apiv1.AuditRecord{
		T: apiv1.Duration(now), Kind: apiv1.AuditAPI,
		Action: action, Job: job, Detail: detail,
	})
}

// Observe implements obs.Subscriber: one predicted-vs-actual row per
// delivered partial transfer, and each planner call folded into the pending
// planner row.
func (a *auditor) Observe(ev obs.Event) {
	switch ev.Kind {
	case obs.EvDelivered:
		a.record(apiv1.AuditRecord{
			T: apiv1.Duration(ev.At), Kind: apiv1.AuditTransfer,
			Transfer: &apiv1.TransferAudit{
				JobID: ev.Job, From: ev.Site, To: ev.Peer,
				Strategy: ev.Note, Bytes: ev.Bytes, Lanes: ev.Lanes,
				PredictedMBps: ev.Predicted.MBps,
				PredictedTime: apiv1.Duration(ev.Predicted.Time),
				PredictedCost: ev.Predicted.Cost,
				ActualMBps:    ev.Actual.MBps,
				ActualTime:    apiv1.Duration(ev.Actual.Time),
				ActualCost:    ev.Actual.Cost,
				NodesUsed:     ev.Nodes,
				Replans:       ev.Replans,
			},
		})
	case obs.EvPlan:
		a.plan.Add(ev)
	}
}

// plannerRow records the planner activity folded since the previous row;
// quiet quanta write nothing.
func (a *auditor) plannerRow(now time.Duration) {
	if a.plan == (obs.PlanCounts{}) {
		return
	}
	d := apiv1.PlannerAudit(a.plan)
	a.plan = obs.PlanCounts{}
	a.record(apiv1.AuditRecord{
		T: apiv1.Duration(now), Kind: apiv1.AuditPlanner, Planner: &d,
	})
}
