package transfer

import (
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// rig is a fully wired test environment.
type rig struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	mon   *monitor.Service
	mgr   *Manager
}

// newRig builds a quiet 4-site diamond: A-B 10, B-D 10, A-C 6, C-D 8, A-D 4
// (MB/s, symmetric), everything deterministic.
func newRig(t *testing.T, monitored bool) *rig {
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
	var mon_ *monitor.Service
	if monitored {
		mon_ = monitor.NewService(net, monitor.Options{Interval: 15 * time.Second})
		mon_.Start()
	}
	mgr := NewManager(net, mon_, Options{
		ChunkBytes: 8 << 20,
		Params: model.Params{Gain: 0.55, MaxSpeedup: 4, Intr: 1,
			Class: cloud.Medium, EgressPerGB: 0.12},
	})
	for _, id := range []cloud.SiteID{"A", "B", "C", "D"} {
		mgr.Deploy(id, cloud.Medium, 8)
	}
	return &rig{sched: sched, net: net, mon: mon_, mgr: mgr}
}

// run executes one transfer to completion and returns the result.
func (r *rig) run(t *testing.T, req Request, horizon time.Duration) Result {
	t.Helper()
	var res *Result
	_, err := r.mgr.Transfer(req, func(x Result) { res = &x })
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	r.sched.RunFor(horizon)
	if res == nil {
		t.Fatalf("transfer %v did not complete within %v", req.Strategy, horizon)
	}
	return *res
}

func TestSplitChunks(t *testing.T) {
	cs := splitChunks(1, 100, 30, nil)
	if len(cs) != 4 {
		t.Fatalf("chunks = %d, want 4", len(cs))
	}
	var total int64
	seen := map[uint64]bool{}
	for i, c := range cs {
		total += c.size
		if c.index != i {
			t.Fatalf("index %d != %d", c.index, i)
		}
		if seen[c.hash] {
			t.Fatal("duplicate hash for distinct chunks")
		}
		seen[c.hash] = true
	}
	if total != 100 {
		t.Fatalf("sizes sum to %d", total)
	}
	if cs[3].size != 10 {
		t.Fatalf("last chunk size = %d, want 10", cs[3].size)
	}
}

func TestSplitChunksInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	splitChunks(1, 100, 0, nil)
}

func TestChunkHashStableAndDistinct(t *testing.T) {
	if chunkHash(1, 2) != chunkHash(1, 2) {
		t.Fatal("hash not stable")
	}
	if chunkHash(1, 2) == chunkHash(1, 3) || chunkHash(1, 2) == chunkHash(2, 2) {
		t.Fatal("hash collision across identity")
	}
}

func TestDirectTransfer(t *testing.T) {
	r := newRig(t, false)
	res := r.run(t, Request{From: "A", To: "D", Size: 40 << 20, Strategy: Direct, Intr: 1}, time.Hour)
	if res.Bytes != 40<<20 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	// 40 MB over the 4 MB/s direct link: >= ~10.4s.
	if res.Duration < 10*time.Second || res.Duration > 20*time.Second {
		t.Fatalf("direct duration = %v", res.Duration)
	}
	if res.NodesUsed != 2 {
		t.Fatalf("direct transfer used %d nodes, want 2", res.NodesUsed)
	}
	if res.Chunks != 5 || res.Acks != 5 || res.HopFlows != 5 {
		t.Fatalf("counters = %+v", res)
	}
	if res.Retransmits != 0 || res.Duplicates != 0 || res.Timeouts != 0 {
		t.Fatalf("unexpected reliability events: %+v", res)
	}
}

func TestParallelFasterThanDirect(t *testing.T) {
	r := newRig(t, false)
	direct := r.run(t, Request{From: "A", To: "D", Size: 100 << 20, Strategy: Direct, Intr: 1}, 2*time.Hour)
	r2 := newRig(t, false)
	par := r2.run(t, Request{From: "A", To: "D", Size: 100 << 20, Strategy: ParallelStatic, Lanes: 4, Intr: 1}, 2*time.Hour)
	if par.Duration >= direct.Duration {
		t.Fatalf("parallel (%v) not faster than direct (%v)", par.Duration, direct.Duration)
	}
	if par.NodesUsed <= direct.NodesUsed {
		t.Fatal("parallel should engage more nodes")
	}
}

func TestWidestBeatsDirectLink(t *testing.T) {
	// The A>B>D path (bottleneck 10) beats the direct A>D link (4).
	r := newRig(t, true)
	r.sched.RunFor(time.Minute) // let the monitor learn
	direct := r.run(t, Request{From: "A", To: "D", Size: 80 << 20, Strategy: Direct, Intr: 1}, 2*time.Hour)
	r2 := newRig(t, true)
	r2.sched.RunFor(time.Minute)
	widest := r2.run(t, Request{From: "A", To: "D", Size: 80 << 20, Strategy: WidestStatic, Intr: 1}, 2*time.Hour)
	if widest.Duration >= direct.Duration {
		t.Fatalf("widest-path (%v) not faster than direct link (%v)", widest.Duration, direct.Duration)
	}
	// Multi-hop lanes engage an intermediate node.
	if widest.NodesUsed != 3 {
		t.Fatalf("widest lane used %d nodes, want 3 (A,B,D)", widest.NodesUsed)
	}
	if widest.HopFlows != 2*widest.Chunks {
		t.Fatalf("HopFlows = %d, want 2 per chunk", widest.HopFlows)
	}
}

func TestMultipathAggregatesPaths(t *testing.T) {
	r := newRig(t, true)
	r.sched.RunFor(time.Minute)
	res := r.run(t, Request{From: "A", To: "D", Size: 200 << 20,
		Strategy: MultipathStatic, NodeBudget: 12, Intr: 1}, 2*time.Hour)
	// With 12 nodes across A>B>D and A>C>D the aggregate should clearly
	// beat the widest single lane (10 MB/s).
	if res.MBps < 11 {
		t.Fatalf("multipath goodput = %.2f MB/s, want > 11", res.MBps)
	}
	if res.NodesUsed < 6 {
		t.Fatalf("multipath used only %d nodes", res.NodesUsed)
	}
}

func TestEnvAwareAvoidsDegradedNodes(t *testing.T) {
	// Degrade 2 of 4 source nodes mid-transfer; EnvAware must finish
	// faster than the oblivious static round-robin.
	run := func(strategy Strategy) time.Duration {
		r := newRig(t, false)
		size := int64(300 << 20)
		var res *Result
		_, err := r.mgr.Transfer(Request{From: "A", To: "D", Size: size,
			Strategy: strategy, Lanes: 4, Intr: 1}, func(x Result) { res = &x })
		if err != nil {
			t.Fatal(err)
		}
		r.sched.After(5*time.Second, func() {
			pool := r.mgr.Pool("A")
			r.net.SetNodeNICScale(pool[0], 0.02)
			r.net.SetNodeNICScale(pool[1], 0.02)
		})
		r.sched.RunFor(6 * time.Hour)
		if res == nil {
			t.Fatalf("%v did not finish", strategy)
		}
		return res.Duration
	}
	envAware := run(EnvAware)
	static := run(ParallelStatic)
	if envAware >= static {
		t.Fatalf("EnvAware (%v) should beat ParallelStatic (%v) under degradation", envAware, static)
	}
}

func TestTransferSurvivesNodeFailure(t *testing.T) {
	r := newRig(t, false)
	var res *Result
	_, err := r.mgr.Transfer(Request{From: "A", To: "D", Size: 100 << 20,
		Strategy: EnvAware, Lanes: 3, Intr: 1}, func(x Result) { res = &x })
	if err != nil {
		t.Fatal(err)
	}
	r.sched.After(3*time.Second, func() {
		r.net.KillNode(r.mgr.Pool("A")[0])
	})
	r.sched.RunFor(3 * time.Hour)
	if res == nil {
		t.Fatal("transfer did not survive node failure")
	}
	if res.Bytes != 100<<20 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.Retransmits == 0 {
		t.Fatal("expected retransmissions after node failure")
	}
}

func TestDynamicReplans(t *testing.T) {
	r := newRig(t, true)
	r.sched.RunFor(time.Minute)
	// Big transfer so several replan intervals elapse; degrade the widest
	// path midway so the dynamic strategy must re-route.
	var res *Result
	_, err := r.mgr.Transfer(Request{From: "A", To: "D", Size: 1 << 30,
		Strategy: WidestDynamic, Lanes: 2, Intr: 1}, func(x Result) { res = &x })
	if err != nil {
		t.Fatal(err)
	}
	r.sched.After(20*time.Second, func() {
		r.net.SetLinkScale("A", "B", 0.1) // widest path collapses
	})
	r.sched.RunFor(12 * time.Hour)
	if res == nil {
		t.Fatal("dynamic transfer did not finish")
	}
	if res.Replans == 0 {
		t.Fatal("dynamic strategy never replanned")
	}
}

func TestDynamicBeatsStaticUnderDegradation(t *testing.T) {
	run := func(strategy Strategy) time.Duration {
		r := newRig(t, true)
		r.sched.RunFor(time.Minute)
		var res *Result
		_, err := r.mgr.Transfer(Request{From: "A", To: "D", Size: 600 << 20,
			Strategy: strategy, Lanes: 2, Intr: 1}, func(x Result) { res = &x })
		if err != nil {
			t.Fatal(err)
		}
		r.sched.After(15*time.Second, func() {
			r.net.SetLinkScale("A", "B", 0.1)
			r.net.SetLinkScale("B", "D", 0.1)
		})
		r.sched.RunFor(24 * time.Hour)
		if res == nil {
			t.Fatalf("%v did not finish", strategy)
		}
		return res.Duration
	}
	dynamic := run(WidestDynamic)
	static := run(WidestStatic)
	if dynamic >= static {
		t.Fatalf("dynamic (%v) should beat static (%v) when the chosen path degrades", dynamic, static)
	}
}

func TestIntrusivenessCapsThroughput(t *testing.T) {
	r := newRig(t, false)
	full := r.run(t, Request{From: "A", To: "B", Size: 50 << 20, Strategy: Direct, Intr: 1}, time.Hour)
	r2 := newRig(t, false)
	capped := r2.run(t, Request{From: "A", To: "B", Size: 50 << 20, Strategy: Direct, Intr: 0.1}, 3*time.Hour)
	// 10% of a Medium NIC is 2.5 MB/s < link 10 MB/s.
	if capped.Duration <= full.Duration*3 {
		t.Fatalf("intrusiveness cap ineffective: full %v vs capped %v", full.Duration, capped.Duration)
	}
}

func TestCostAccounting(t *testing.T) {
	r := newRig(t, false)
	res := r.run(t, Request{From: "A", To: "B", Size: 1 << 30, Strategy: Direct, Intr: 1}, 3*time.Hour)
	// Egress: exactly 1 GB crossed one WAN hop at 0.12/GB.
	egress := 0.12
	vm := 2 * cloud.Medium.PricePerHour * res.Duration.Hours() // 2 nodes, Intr 1
	want := egress + vm
	if math.Abs(res.Cost-want)/want > 0.01 {
		t.Fatalf("cost = %v, want ~%v", res.Cost, want)
	}
	// Multi-hop transfers pay egress twice.
	r2 := newRig(t, true)
	r2.sched.RunFor(time.Minute)
	res2 := r2.run(t, Request{From: "A", To: "D", Size: 1 << 30, Strategy: WidestStatic, Intr: 1}, 3*time.Hour)
	minEgress := 2 * 0.12 * 0.99
	if res2.Cost < minEgress {
		t.Fatalf("multi-hop cost %v should include ~2x egress %v", res2.Cost, minEgress)
	}
}

func TestMonitorFeedbackFromTransfers(t *testing.T) {
	r := newRig(t, true)
	// No probing time: estimates come from the learning phase; after a
	// transfer, the A>B estimate must reflect achieved throughput.
	before, _ := r.mon.Estimate("A", "B")
	r.run(t, Request{From: "A", To: "B", Size: 100 << 20, Strategy: Direct, Intr: 1}, time.Hour)
	after, _ := r.mon.Estimate("A", "B")
	if before == 0 || after == 0 {
		t.Fatalf("estimates missing: %v -> %v", before, after)
	}
	st := r.mon.State("A", "B")
	if st.History.Total() < 4 {
		t.Fatal("transfer feedback not recorded in history")
	}
}

func TestRequestValidation(t *testing.T) {
	r := newRig(t, false)
	cases := []Request{
		{From: "A", To: "D", Size: 0, Strategy: Direct},
		{From: "A", To: "A", Size: 100, Strategy: Direct},
		{From: "A", To: "Z", Size: 100, Strategy: Direct},
		{From: "Z", To: "A", Size: 100, Strategy: Direct},
		{From: "A", To: "D", Size: 100, Strategy: Strategy(99)},
	}
	for i, req := range cases {
		if _, err := r.mgr.Transfer(req, nil); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMissingDeploymentError(t *testing.T) {
	sched := simtime.New()
	topo := cloud.DefaultAzure()
	net := netsim.New(sched, topo, rng.New(1), netsim.Options{GlitchMeanGap: -1})
	mgr := NewManager(net, nil, Options{})
	mgr.Deploy(cloud.NorthEU, cloud.Small, 2)
	// Destination site has no pool.
	if _, err := mgr.Transfer(Request{From: cloud.NorthEU, To: cloud.NorthUS,
		Size: 1 << 20, Strategy: Direct}, nil); err == nil {
		t.Fatal("expected missing-deployment error")
	}
}

func TestHandleProgress(t *testing.T) {
	r := newRig(t, false)
	var res *Result
	h, err := r.mgr.Transfer(Request{From: "A", To: "B", Size: 64 << 20,
		Strategy: Direct, Intr: 1}, func(x Result) { res = &x })
	if err != nil {
		t.Fatal(err)
	}
	if done, total := h.Progress(); done != 0 || total != 64<<20 {
		t.Fatalf("initial progress %d/%d", done, total)
	}
	r.sched.RunFor(3 * time.Second)
	if done, _ := h.Progress(); done == 0 {
		t.Fatal("no progress after 3s")
	}
	if h.Done() {
		t.Fatal("Done too early")
	}
	r.sched.RunFor(time.Hour)
	if !h.Done() || res == nil {
		t.Fatal("transfer incomplete")
	}
	if done, total := h.Progress(); done != total {
		t.Fatalf("final progress %d/%d", done, total)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		r := newRig(t, true)
		r.sched.RunFor(time.Minute)
		return r.run(t, Request{From: "A", To: "D", Size: 96 << 20,
			Strategy: MultipathStatic, NodeBudget: 9, Intr: 1}, 2*time.Hour)
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Cost != b.Cost || a.HopFlows != b.HopFlows {
		t.Fatalf("non-deterministic results:\n%+v\n%+v", a, b)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Direct: "Direct", ParallelStatic: "ParallelStatic", EnvAware: "EnvAware",
		WidestStatic: "WidestStatic", WidestDynamic: "WidestDynamic",
		MultipathStatic: "MultipathStatic", MultipathDynamic: "MultipathDynamic",
	} {
		if s.String() != want {
			t.Fatalf("String(%d) = %q", int(s), s.String())
		}
	}
	if !WidestDynamic.Dynamic() || ParallelStatic.Dynamic() {
		t.Fatal("Dynamic() misclassifies")
	}
}
