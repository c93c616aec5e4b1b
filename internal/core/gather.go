package core

import (
	"errors"
	"time"

	"sage/internal/cloud"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// GatherSpec describes the scientific "meta-reducer" pattern: every source
// site holds many partial-result files that must all reach the sink site,
// where a global reduction runs. This is the bulk counterpart of a
// streaming job — one shot, file-granular acknowledgements.
type GatherSpec struct {
	Partials workload.Partials
	Sink     cloud.SiteID
	Strategy transfer.Strategy
	// Lanes / NodeBudget / Intr parameterize each site's transfer (see
	// transfer.Request).
	Lanes, NodeBudget int
	Intr              float64
}

// SiteGather reports one site's file collection.
type SiteGather struct {
	Site     cloud.SiteID
	Bytes    int64
	Duration time.Duration
	Cost     float64
	Result   transfer.Result
}

// GatherReport reports a completed gather.
type GatherReport struct {
	Sites []SiteGather
	// Makespan is the time until the last site finished — the quantity the
	// meta-reducer waits for.
	Makespan time.Duration
	// TotalBytes and TotalCost aggregate the run.
	TotalBytes int64
	TotalCost  float64
}

// Gather runs the file-collection pattern to completion and reports. Files
// are transferred with one acknowledged chunk per file, so per-file overhead
// (acks, setup latency) is faithfully charged — the regime where small files
// lose and large files win.
func (e *Engine) Gather(spec GatherSpec) (*GatherReport, error) {
	if err := spec.Partials.Validate(); err != nil {
		return nil, err
	}
	if e.Net.Topology().Site(spec.Sink) == nil {
		return nil, errors.New("core: unknown sink site")
	}
	rep := &GatherReport{}
	remaining := 0
	start := e.Sched.Now()
	for _, site := range spec.Partials.Sites {
		site := site
		if site == spec.Sink {
			continue // already local to the meta-reducer
		}
		req := transfer.Request{
			From: site, To: spec.Sink,
			Size:       spec.Partials.PerSiteBytes(),
			ChunkBytes: spec.Partials.FileBytes,
			Strategy:   spec.Strategy,
			Lanes:      spec.Lanes, NodeBudget: spec.NodeBudget,
			Intr: spec.Intr,
		}
		remaining++
		var h *transfer.Handle
		var err error
		h, err = e.Mgr.Transfer(req, func(res transfer.Result) {
			remaining--
			sg := SiteGather{
				Site: site, Bytes: res.Bytes,
				Duration: res.Duration, Cost: res.Cost, Result: res,
			}
			rep.Sites = append(rep.Sites, sg)
			rep.TotalBytes += res.Bytes
			rep.TotalCost += res.Cost
			if d := e.Sched.Now() - start; d > rep.Makespan {
				rep.Makespan = d
			}
			e.Mgr.Recycle(h)
		})
		if err != nil {
			return nil, err
		}
	}
	// Drive the simulation until every site has delivered (bounded).
	for i := 0; remaining > 0 && i < 1000; i++ {
		e.Sched.RunFor(time.Minute)
	}
	if remaining > 0 {
		return nil, errors.New("core: gather did not finish within bound")
	}
	return rep, nil
}
