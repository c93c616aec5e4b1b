package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/sched"
)

// Handler returns the daemon's HTTP surface:
//
//	POST   /api/v1/jobs             submit a roster (same JSON as sagesim -jobs-file)
//	GET    /api/v1/jobs             live status of every job
//	GET    /api/v1/jobs/{id}        one job's status
//	DELETE /api/v1/jobs/{id}        cancel a job
//	POST   /api/v1/jobs/{id}/pause  pause a job's transfers / hold it from admission
//	POST   /api/v1/jobs/{id}/resume lift a pause
//	GET    /api/v1/report           final multi-job report (once all jobs drained)
//	GET    /api/v1/timeline         flight-recorder spans
//	GET    /api/v1/clock            virtual clock state
//	POST   /api/v1/clock            {"action":"pause"|"resume"}
//	GET    /metrics                 Prometheus text exposition
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", d.obs.Metrics.Handler())
	mux.Handle("GET /api/v1/timeline", d.obs.Timeline.Handler())
	mux.HandleFunc("POST /api/v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", d.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", d.handleJobGet)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", d.handleJobOp("cancel", (*sched.Scheduler).Cancel))
	mux.HandleFunc("POST /api/v1/jobs/{id}/pause", d.handleJobOp("pause", (*sched.Scheduler).Pause))
	mux.HandleFunc("POST /api/v1/jobs/{id}/resume", d.handleJobOp("resume", (*sched.Scheduler).Resume))
	mux.HandleFunc("GET /api/v1/report", d.handleReport)
	mux.HandleFunc("GET /api/v1/clock", d.handleClockGet)
	mux.HandleFunc("POST /api/v1/clock", d.handleClockPost)
	return mux
}

// writeJSON writes a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps an error to a structured JSON error response. Spec
// validation failures (*core.SpecError) become 400s carrying the typed
// field and reason; httpError carries its own status; ErrStopped maps to
// 503; anything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	resp := apiv1.ErrorResponse{Error: err.Error()}
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	var se *core.SpecError
	if errors.As(err, &se) {
		status = http.StatusBadRequest
		resp.Field, resp.Reason = se.Field, se.Reason
	}
	if errors.Is(err, ErrStopped) {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&resp)
}

// Request body limits. A roster of a few hundred jobs is tens of kilobytes;
// a clock action is one short object.
const (
	maxRosterBytes = 4 << 20
	maxClockBytes  = 4 << 10
)

// bodyErr classifies a request-body decode failure: a body over its limit is
// a 413, anything else a malformed request.
func bodyErr(err error) error {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	return &httpError{status: status, err: err}
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ros, err := apiv1.DecodeRoster(http.MaxBytesReader(w, r.Body, maxRosterBytes))
	if err != nil {
		writeErr(w, bodyErr(err))
		return
	}
	var resp *apiv1.SubmitResponse
	var herr error
	if err := d.do(func() { resp, herr = d.submit(ros) }); err != nil {
		writeErr(w, err)
		return
	}
	if herr != nil {
		writeErr(w, herr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// list snapshots every job's wire status (driver goroutine).
func (d *Daemon) list() apiv1.JobList {
	l := apiv1.JobList{Jobs: []apiv1.JobStatus{}}
	if d.eng != nil {
		l.Now = apiv1.Duration(d.eng.Sched.Now())
	}
	if d.sc != nil {
		l.Jobs = d.sc.Status()
	}
	return l
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	var l apiv1.JobList
	if err := d.do(func() { l = d.list() }); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, l)
}

func (d *Daemon) handleJobGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	var row apiv1.JobStatus
	found := false
	if err := d.do(func() {
		if d.sc != nil {
			row, found = d.sc.StatusOf(name)
		}
	}); err != nil {
		writeErr(w, err)
		return
	}
	if !found {
		writeErr(w, errStatus(http.StatusNotFound, "daemon: unknown job %q", name))
		return
	}
	writeJSON(w, row)
}

// handleJobOp builds the handler for one named mutation, op: the
// scheduler's Cancel (DELETE), Pause or Resume, audited as action. It
// answers with the job's status row.
func (d *Daemon) handleJobOp(action string, op func(*sched.Scheduler, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("id")
		var herr error
		var row apiv1.JobStatus
		if err := d.do(func() {
			if herr = d.jobOp(name, action, op); herr != nil {
				return
			}
			// Snapshot at the same safe point as the mutation: with an
			// unpaced clock a second mailbox round-trip could observe a much
			// later simulation state than the operation's effect.
			row, _ = d.sc.StatusOf(name)
		}); err != nil {
			writeErr(w, err)
			return
		}
		if herr != nil {
			writeErr(w, herr)
			return
		}
		writeJSON(w, row)
	}
}

func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	var rep *apiv1.MultiReport
	var herr error
	if err := d.do(func() {
		if d.sc == nil {
			herr = errStatus(http.StatusConflict, "daemon: no roster submitted yet")
			return
		}
		m, err := d.sc.Report()
		if err != nil {
			herr = &httpError{status: http.StatusConflict, err: err}
			return
		}
		rep = m.Wire()
	}); err != nil {
		writeErr(w, err)
		return
	}
	if herr != nil {
		writeErr(w, herr)
		return
	}
	writeJSON(w, rep)
}

func (d *Daemon) handleClockGet(w http.ResponseWriter, r *http.Request) {
	var c apiv1.Clock
	if err := d.do(func() { c = d.clock() }); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, c)
}

func (d *Daemon) handleClockPost(w http.ResponseWriter, r *http.Request) {
	act, err := apiv1.DecodeClockAction(http.MaxBytesReader(w, r.Body, maxClockBytes))
	if err != nil {
		writeErr(w, bodyErr(err))
		return
	}
	var c apiv1.Clock
	if err := d.do(func() {
		d.paused = act.Action == "pause"
		if d.aud != nil {
			now := time.Duration(0)
			if d.eng != nil {
				now = d.eng.Sched.Now()
			}
			d.aud.api(now, "clock-"+act.Action, "", "")
		}
		c = d.clock()
	}); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, c)
}
