package obs

import (
	"strings"
	"testing"
	"time"
)

// TestEngineFactFamilies pins the series the network, monitor and planner
// facts feed: a link's probe and estimate, its capacity and senders, a site's
// egress, the reallocation passes and each planner outcome. The label-free
// network and planner series are in every exposition of an observer that saw
// a fact; a per-link group appears with the group's first fact only.
func TestEngineFactFamilies(t *testing.T) {
	o := NewObserver()
	at := time.Minute
	for _, ev := range []Event{
		{Kind: EvProbe, At: at, Site: "NEU", Peer: "NUS", Value: 40},
		{Kind: EvProbe, At: at, Site: "NEU", Peer: "NUS", Value: 42.5},
		{Kind: EvResample, At: at, Site: "NUS", Peer: "NEU", Value: 80, Nodes: 3},
		{Kind: EvEgress, At: at, Job: 1, Site: "NEU", Bytes: 1000},
		{Kind: EvEgress, At: at, Job: 2, Site: "NEU", Bytes: 24},
		{Kind: EvRealloc, At: at, Value: 5},
		{Kind: EvRealloc, At: at, Value: 7},
		{Kind: EvPlan, At: at, Note: PlanFull, Value: 12, ID: 12},
		{Kind: EvPlan, At: at, Note: PlanHit},
		{Kind: EvPlan, At: at, Note: PlanRepair, Value: 2, ID: 1},
		{Kind: EvPlan, At: at, Note: PlanRefresh, Value: 3, ID: 3},
	} {
		o.Emit(ev)
	}
	var sb strings.Builder
	if err := o.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`sage_probes_total{from="NEU",to="NUS"} 2`,
		`sage_link_estimate_mbps{from="NEU",to="NUS"} 42.5`,
		`sage_link_capacity_mbps{from="NUS",to="NEU"} 80`,
		`sage_link_flows{from="NUS",to="NEU"} 3`,
		`sage_egress_bytes_total{site="NEU"} 1024`,
		`sage_netsim_realloc_passes_total 2`,
		`sage_netsim_flows_rerated_total 12`,
		`sage_planner_replans_total 3`,
		`sage_planner_cache_hits_total 1`,
		`sage_planner_repairs_total 1`,
		`sage_planner_full_recomputes_total 1`,
		`sage_planner_dirty_edges_total 17`,
		`sage_planner_dirty_edges_last 3`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
	for _, absent := range []string{
		`sage_probes_total{from="NUS"`,
		`sage_link_capacity_mbps{from="NEU"`,
		`sage_transfers_started_total{`,
	} {
		if strings.Contains(got, absent) {
			t.Errorf("exposition has a series no fact touched: %q", absent)
		}
	}
}
