package netsim

import (
	"sage/internal/cloud"
	"sage/internal/obs"
)

// netMetrics holds the simulator's instrument families; the zero value
// (observability disabled) hands out no-op handles.
type netMetrics struct {
	capacity obs.GaugeVec   // from,to: current deliverable link capacity, MB/s
	flows    obs.GaugeVec   // from,to: distinct sender nodes with active flows
	egress   obs.CounterVec // site: WAN egress bytes charged to the site
	// passes / rerated count reallocation passes and the flows they re-rated;
	// their ratio is the mean component size per event, the number that says
	// whether component-scoped reallocation still fits the traffic.
	passes  obs.Counter
	rerated obs.Counter
}

func newNetMetrics(r *obs.Registry) netMetrics {
	return netMetrics{
		capacity: r.Gauge("sage_link_capacity_mbps", "current deliverable WAN link capacity", "from", "to"),
		flows:    r.Gauge("sage_link_flows", "distinct sender nodes with active flows on the link", "from", "to"),
		egress:   r.Counter("sage_egress_bytes_total", "WAN egress bytes charged to the site", "site"),
		passes:   r.Counter("sage_netsim_realloc_passes_total", "max-min reallocation passes").With(),
		rerated:  r.Counter("sage_netsim_flows_rerated_total", "flows re-rated by reallocation passes (over passes: mean component size per event)").With(),
	}
}

// egressCounter returns the cached per-site egress handle; the no-op handle
// when observability is off.
func (n *Network) egressCounter(site cloud.SiteID) obs.Counter {
	if n.opt.Obs == nil {
		return obs.Counter{}
	}
	c, ok := n.egressCtr[site]
	if !ok {
		c = n.met.egress.With(string(site))
		n.egressCtr[site] = c
	}
	return c
}
