package transfer

import (
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

// newObsRig is newRig's diamond world with the observability layer attached.
func newObsRig(t *testing.T) (*rig, *obs.Observer) {
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
	net := netsim.New(sched, topo, rng.New(1), netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9})
	o := obs.NewObserver()
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
	return &rig{sched: sched, net: net, mon: mon, mgr: mgr}, o
}

// TestPlannerMetricsExported runs a replanning transfer with observability
// attached and checks the planner counters land in the registry and agree
// with the planner's own taxonomy: every replan is exactly one of cache hit,
// repair, or full recompute.
func TestPlannerMetricsExported(t *testing.T) {
	r, o := newObsRig(t)
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

	reg := o.Registry()
	val := func(name string) int64 { return reg.Counter(name, "").With().Value() }
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
	if int64(s.Replans) != replans {
		t.Fatalf("exported %d replans, planner counted %d", replans, s.Replans)
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
// observer every planner handle is a no-op, but the planner itself still
// plans and counts.
func TestPlannerMetricsInertWhenOff(t *testing.T) {
	r := newRig(t, true)
	r.sched.RunFor(time.Minute)
	r.run(t, Request{From: "A", To: "D", Size: 64 << 20, Strategy: WidestStatic, Lanes: 2, Intr: 1}, 12*time.Hour)
	if r.mgr.pm.replans.Enabled() || r.mgr.pm.dirtyLast.Enabled() {
		t.Fatal("planner metric handles live despite observability off")
	}
	if s := r.mgr.Planner().Stats(); s.Replans == 0 {
		t.Fatalf("planner did not count replans: %+v", s)
	}
}
