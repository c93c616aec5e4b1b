package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/obs"
	"sage/internal/route"
)

// auditor writes the append-only JSONL audit log: one apiv1.AuditRecord per
// line. Every method runs on the driver goroutine (the engine calls
// TransferDone synchronously during event processing, the daemon calls api
// and plannerDiff between quanta), plus one final api call from Stop after
// the driver is dead — so the encoder needs no lock.
type auditor struct {
	w io.Writer
	// enc encodes one record into buf, which is then written whole: a
	// json.Encoder on w itself would refuse every record after its first
	// failed write.
	enc *json.Encoder
	buf bytes.Buffer
	// prev is the planner counter snapshot the next plannerDiff diffs
	// against.
	prev route.PlannerStats
	// wall stamps records with wall-clock time; a test seam.
	wall func() time.Time
	// err is the first write error; writeErrs counts every failed record.
	// A failed record is lost, the daemon keeps running, and Stop reports
	// err.
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
	a.buf.Reset()
	err := a.enc.Encode(&rec)
	if err == nil {
		_, err = a.w.Write(a.buf.Bytes())
	}
	if err != nil {
		a.writeErrs.Inc()
		if a.err == nil {
			a.err = fmt.Errorf("daemon: audit write: %w", err)
		}
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

// TransferDone implements core.AuditSink: one predicted-vs-actual row per
// completed partial transfer.
func (a *auditor) TransferDone(t core.TransferAudit) {
	a.record(apiv1.AuditRecord{
		T: apiv1.Duration(t.At), Kind: apiv1.AuditTransfer,
		Transfer: &apiv1.TransferAudit{
			JobID: t.JobID, From: string(t.From), To: string(t.To),
			Strategy: t.Strategy, Bytes: t.Bytes, Lanes: t.Lanes,
			PredictedMBps: t.PredictedMBps,
			PredictedTime: apiv1.Duration(t.PredictedTime),
			PredictedCost: t.PredictedCost,
			ActualMBps:    t.ActualMBps,
			ActualTime:    apiv1.Duration(t.ActualTime),
			ActualCost:    t.ActualCost,
			NodesUsed:     t.NodesUsed,
			Replans:       t.Replans,
		},
	})
}

// plannerDiff records route-planner activity since the previous call as a
// counter diff; quiet quanta write nothing.
func (a *auditor) plannerDiff(now time.Duration, st route.PlannerStats) {
	if st == a.prev {
		return
	}
	d := apiv1.PlannerAudit{
		Replans:        st.Replans - a.prev.Replans,
		CacheHits:      st.CacheHits - a.prev.CacheHits,
		Repairs:        st.Repairs - a.prev.Repairs,
		FullRecomputes: st.FullRecomputes - a.prev.FullRecomputes,
		DirtyEdges:     st.DirtyEdges - a.prev.DirtyEdges,
		ChangedEdges:   st.ChangedEdges - a.prev.ChangedEdges,
	}
	a.prev = st
	a.record(apiv1.AuditRecord{
		T: apiv1.Duration(now), Kind: apiv1.AuditPlanner, Planner: &d,
	})
}
