package transfer

import "sage/internal/obs"

// plannerMetrics exports the incremental route planner's behaviour: how
// often replans were requested and how each was answered (cache hit,
// repair on the persistent graph, full recompute), plus the dirty-edge
// refresh volume. Handles are label-free singles resolved at registration;
// the zero value (observability disabled) hands out no-op handles.
type plannerMetrics struct {
	replans   obs.Counter
	hits      obs.Counter
	repairs   obs.Counter
	fulls     obs.Counter
	dirty     obs.Counter
	dirtyLast obs.Gauge
}

func newPlannerMetrics(r *obs.Registry) plannerMetrics {
	return plannerMetrics{
		replans:   r.Counter("sage_planner_replans_total", "route plan queries answered").With(),
		hits:      r.Counter("sage_planner_cache_hits_total", "plan queries answered from an untouched cached plan").With(),
		repairs:   r.Counter("sage_planner_repairs_total", "plan queries recomputed after a dirty edge touched the cached plan").With(),
		fulls:     r.Counter("sage_planner_full_recomputes_total", "plan queries computed with no usable cached plan").With(),
		dirty:     r.Counter("sage_planner_dirty_edges_total", "dirty-edge refreshes committed before plan queries").With(),
		dirtyLast: r.Gauge("sage_planner_dirty_edges_last", "dirty edges committed by the most recent planner round").With(),
	}
}

// notePlanner folds the planner's cumulative stats delta into the planner
// counters (no-op handles when the layer is off).
func (m *Manager) notePlanner() {
	s := m.planner.Stats()
	d := m.lastPlanner
	m.pm.replans.Add(int64(s.Replans - d.Replans))
	m.pm.hits.Add(int64(s.CacheHits - d.CacheHits))
	m.pm.repairs.Add(int64(s.Repairs - d.Repairs))
	m.pm.fulls.Add(int64(s.FullRecomputes - d.FullRecomputes))
	m.pm.dirty.Add(int64(s.DirtyEdges - d.DirtyEdges))
	m.pm.dirtyLast.Set(float64(s.DirtyEdges - d.DirtyEdges))
	m.lastPlanner = s
}
