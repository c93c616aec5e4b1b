package transfer

import (
	"reflect"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// newObsRig is newRig's monitored diamond world with o, which may be nil,
// attached to every layer.
func newObsRig(t *testing.T, o *obs.Observer) *rig {
	t.Helper()
	sched := simtime.New()
	topo := cloud.NewTopology(250, 2*time.Millisecond)
	for _, id := range []cloud.SiteID{"A", "B", "C", "D"} {
		topo.AddSite(&cloud.Site{ID: id, Region: "T", EgressPerGB: 0.12})
	}
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "B", BaseMBps: 10, RTT: ms(20), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "B", To: "D", BaseMBps: 10, RTT: ms(20), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "C", BaseMBps: 6, RTT: ms(30), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "C", To: "D", BaseMBps: 8, RTT: ms(30), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "D", BaseMBps: 4, RTT: ms(60), Jitter: 1e-9})
	net := netsim.New(sched, topo, rng.New(1), netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9, Obs: o})
	mon := monitor.NewService(net, monitor.Options{Interval: 15 * time.Second, Obs: o})
	mon.Start()
	mgr := NewManager(net, mon, Options{
		ChunkBytes: 8 << 20,
		Params: model.Params{Gain: 0.55, MaxSpeedup: 4, Intr: 1,
			Class: cloud.Medium, EgressPerGB: 0.12},
		Obs: o,
	})
	for _, id := range []cloud.SiteID{"A", "B", "C", "D"} {
		mgr.Deploy(id, cloud.Medium, 8)
	}
	return &rig{sched: sched, net: net, mon: mon, mgr: mgr}
}

// replanningTransfer runs a dynamic transfer whose best path degrades midway,
// so the planner is asked again, and returns its result.
func replanningTransfer(t *testing.T, r *rig) Result {
	t.Helper()
	r.sched.RunFor(time.Minute)
	var res *Result
	if _, err := r.mgr.Transfer(Request{From: "A", To: "D", Size: 1 << 30,
		Strategy: WidestDynamic, Lanes: 2, Intr: 1}, func(x Result) { res = &x }); err != nil {
		t.Fatal(err)
	}
	r.sched.After(20*time.Second, func() { r.net.SetLinkScale("A", "B", 0.1) })
	r.sched.RunFor(12 * time.Hour)
	if res == nil {
		t.Fatal("dynamic transfer did not finish")
	}
	return *res
}

// TestPlannerMetricsExported runs a replanning transfer with observability
// attached and checks that the planner-call events land in the planner
// families and agree with the planner's own counters: every replan is
// exactly one of cache hit, repair, or full recompute, and every dirty-edge
// commit is counted.
func TestPlannerMetricsExported(t *testing.T) {
	o := obs.NewObserver()
	r := newObsRig(t, o)
	replanningTransfer(t, r)

	val := func(name string) int64 { return o.Metrics.Counter(name, "").With().Value() }
	replans := val("sage_planner_replans_total")
	hits := val("sage_planner_cache_hits_total")
	repairs := val("sage_planner_repairs_total")
	fulls := val("sage_planner_full_recomputes_total")
	if replans == 0 {
		t.Fatal("no planner replans exported")
	}
	if hits+repairs+fulls != replans {
		t.Fatalf("taxonomy does not sum: %d hits + %d repairs + %d fulls != %d replans",
			hits, repairs, fulls, replans)
	}
	if val("sage_planner_dirty_edges_total") == 0 {
		t.Fatal("no dirty-edge commits exported despite live monitoring")
	}
	s := r.mgr.Planner().Stats()
	got := [5]int64{replans, hits, repairs, fulls, val("sage_planner_dirty_edges_total")}
	want := [5]int64{int64(s.Replans), int64(s.CacheHits), int64(s.Repairs), int64(s.FullRecomputes), int64(s.DirtyEdges)}
	if got != want {
		t.Fatalf("exported replans, hits, repairs, fulls, dirty edges %v; planner counted %v", got, want)
	}

	// The replan timeline span must appear: the transfer above replanned.
	found := false
	for _, sp := range o.Timeline.Snapshot() {
		if sp.Phase == obs.PhaseReplan {
			found = true
			if sp.Site != "A" || sp.Peer != "D" || sp.Value <= 0 {
				t.Fatalf("replan span malformed: %+v", sp)
			}
		}
	}
	if !found {
		t.Fatal("no replan span recorded on the timeline")
	}
}

// TestPlannerMetricsInertWhenOff checks the disabled path: without an
// observer the planner still plans and counts, and the transfer and the
// planner's counters are those of the observed run.
func TestPlannerMetricsInertWhenOff(t *testing.T) {
	off := newObsRig(t, nil)
	offRes := replanningTransfer(t, off)
	if s := off.mgr.Planner().Stats(); s.Replans == 0 {
		t.Fatalf("planner did not count replans: %+v", s)
	}
	on := newObsRig(t, obs.NewObserver())
	onRes := replanningTransfer(t, on)
	if !reflect.DeepEqual(offRes, onRes) {
		t.Fatalf("observer changed the transfer:\noff %+v\non  %+v", offRes, onRes)
	}
	if off.mgr.Planner().Stats() != on.mgr.Planner().Stats() {
		t.Fatalf("observer changed the planner: off %+v, on %+v",
			off.mgr.Planner().Stats(), on.mgr.Planner().Stats())
	}
}
