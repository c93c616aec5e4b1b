package netsim

import (
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// quietTopo returns a two/three-site topology with zero jitter so capacity
// is exactly the configured baseline.
func quietTopo() *cloud.Topology {
	t := cloud.NewTopology(120, 2*time.Millisecond)
	t.AddSite(&cloud.Site{ID: "A", Region: "EU", EgressPerGB: 0.12})
	t.AddSite(&cloud.Site{ID: "B", Region: "US", EgressPerGB: 0.12})
	t.AddSite(&cloud.Site{ID: "C", Region: "US", EgressPerGB: 0.12})
	t.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "B", BaseMBps: 10, RTT: 10 * time.Millisecond, Jitter: 1e-9})
	t.AddSymmetricLink(cloud.LinkSpec{From: "B", To: "C", BaseMBps: 20, RTT: 10 * time.Millisecond, Jitter: 1e-9})
	t.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "C", BaseMBps: 5, RTT: 20 * time.Millisecond, Jitter: 1e-9})
	return t
}

func quietOpts() Options {
	return Options{GlitchMeanGap: -1, ProbeNoise: 1e-9}
}

func newQuiet(t *testing.T) (*simtime.Scheduler, *Network) {
	t.Helper()
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(1), quietOpts())
	return sched, net
}

func TestSingleFlowThroughput(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	var done *Flow
	net.StartFlow(src, dst, 100e6, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunUntil(time.Minute)
	if done == nil {
		t.Fatal("flow did not complete")
	}
	if done.Err() != nil {
		t.Fatalf("flow error: %v", done.Err())
	}
	// 100 MB at 10 MB/s (WAN-bound; NIC is 12.5) = 10s, plus 10ms setup.
	want := 10*time.Second + 10*time.Millisecond
	if d := done.Duration(); d < want-50*time.Millisecond || d > want+200*time.Millisecond {
		t.Fatalf("duration = %v, want ~%v", d, want)
	}
}

func TestIntraSiteNICBound(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("A", cloud.Small)
	var done *Flow
	net.StartFlow(src, dst, 125e6, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunUntil(time.Minute)
	if done == nil {
		t.Fatal("flow did not complete")
	}
	// 125 MB at NIC 12.5 MB/s = 10s.
	want := 10 * time.Second
	if d := done.Duration(); d < want-50*time.Millisecond || d > want+200*time.Millisecond {
		t.Fatalf("intra-site duration = %v, want ~%v", d, want)
	}
}

func TestTwoFlowsSameSenderShareLink(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Medium) // NIC 25 so WAN is the bottleneck
	d1 := net.NewNode("B", cloud.Medium)
	d2 := net.NewNode("B", cloud.Medium)
	var f1, f2 *Flow
	net.StartFlow(src, d1, 50e6, FlowOpts{}, func(f *Flow) { f1 = f })
	net.StartFlow(src, d2, 50e6, FlowOpts{}, func(f *Flow) { f2 = f })
	sched.RunUntil(time.Minute)
	if f1 == nil || f2 == nil {
		t.Fatal("flows did not complete")
	}
	// One sender: aggregate factor is 1, so the two flows split 10 MB/s.
	// Each gets 5 MB/s -> 10s for 50 MB.
	for _, f := range []*Flow{f1, f2} {
		if d := f.Duration(); d < 9*time.Second || d > 11*time.Second {
			t.Fatalf("shared-flow duration = %v, want ~10s", d)
		}
	}
}

func TestDistinctSendersGetAggregateBandwidth(t *testing.T) {
	sched, net := newQuiet(t)
	// 4 distinct senders: capacity = 10 * 4^0.65 ≈ 24.6 MB/s, NIC-capped
	// per flow at 12.5 but share 24.6/4 ≈ 6.15 each.
	var flows []*Flow
	for i := 0; i < 4; i++ {
		src := net.NewNode("A", cloud.Small)
		dst := net.NewNode("B", cloud.Small)
		net.StartFlow(src, dst, 50e6, FlowOpts{}, func(f *Flow) { flows = append(flows, f) })
	}
	sched.RunUntil(time.Minute)
	if len(flows) != 4 {
		t.Fatalf("%d flows completed, want 4", len(flows))
	}
	agg := math.Pow(4, 0.65)
	wantRate := 10 * agg / 4
	wantDur := time.Duration(50e6 / (wantRate * 1e6) * float64(time.Second))
	for _, f := range flows {
		if d := f.Duration(); d < wantDur-time.Second || d > wantDur+time.Second {
			t.Fatalf("parallel-sender duration = %v, want ~%v", d, wantDur)
		}
	}
	// Sanity: 4 senders in parallel beat 1 sender moving the same total.
	if total := 4 * 50e6 / (flows[0].Duration().Seconds()); total < 20e6 {
		t.Fatalf("aggregate throughput %v B/s should exceed single-link 10 MB/s", total)
	}
}

func TestAggMaxCapsParallelism(t *testing.T) {
	sched, net := newQuiet(t)
	var flows []*Flow
	for i := 0; i < 16; i++ {
		src := net.NewNode("A", cloud.Small)
		dst := net.NewNode("B", cloud.Small)
		net.StartFlow(src, dst, 20e6, FlowOpts{}, func(f *Flow) { flows = append(flows, f) })
	}
	sched.RunUntil(time.Minute)
	if len(flows) != 16 {
		t.Fatalf("%d flows completed, want 16", len(flows))
	}
	// 16 senders would lift the 10 MB/s link 16^0.65 ≈ 6.1×; the cap holds
	// it at 4× = 40 MB/s, so 16×20 MB = 320 MB take at least 8 s (≈ 5.3 s
	// uncapped).
	for _, f := range flows {
		if f.Duration() < 7*time.Second {
			t.Fatalf("flow finished in %v; aggMax cap not applied", f.Duration())
		}
	}
}

// TestAggregateLawTable pins the tabulated aggregate-parallelism law to its
// closed form, bit for bit, for 0 to 1000 senders (fewer than one read as
// one) on a link whose factor, glitch and scale are all off 1, and the table
// to end where the law reaches aggMax.
func TestAggregateLawTable(t *testing.T) {
	_, net := newQuiet(t)
	l := net.links[[2]cloud.SiteID{"A", "B"}]
	l.factor, l.glitch, l.scale = 1.13, 0.37, 2.5
	for k := 0; k <= 1000; k++ {
		want := l.spec.BaseMBps * l.factor * l.glitch * l.scale *
			math.Min(aggMax, math.Pow(float64(max(k, 1)), aggAlpha))
		if got := l.capacityFor(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("capacityFor(%d) = %v, closed form %v", k, got, want)
		}
	}
	last := len(aggLaw) - 1
	if aggLaw[last] != aggMax || aggLaw[last-1] >= aggMax {
		t.Fatalf("law table ends %v, %v; want it to end at its first aggMax", aggLaw[last-1], aggLaw[last])
	}
}

func TestFlowCap(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	var done *Flow
	net.StartFlow(src, dst, 20e6, FlowOpts{CapMBps: 2}, func(f *Flow) { done = f })
	sched.RunUntil(time.Minute)
	if done == nil {
		t.Fatal("flow did not complete")
	}
	want := 10 * time.Second // 20 MB at 2 MB/s
	if d := done.Duration(); d < want-100*time.Millisecond || d > want+300*time.Millisecond {
		t.Fatalf("capped duration = %v, want ~%v", d, want)
	}
}

func TestCancelFlow(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	var done *Flow
	f := net.StartFlow(src, dst, 1e9, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunFor(2 * time.Second)
	net.CancelFlow(f)
	sched.RunFor(time.Second)
	if done == nil {
		t.Fatal("onDone not called for cancelled flow")
	}
	if done.Err() != ErrAborted {
		t.Fatalf("err = %v, want ErrAborted", done.Err())
	}
	if done.BytesDone() <= 0 || done.BytesDone() >= 1e9 {
		t.Fatalf("cancelled flow BytesDone = %d", done.BytesDone())
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after cancel", net.ActiveFlows())
	}
}

func TestKillNodeAbortsFlows(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	var done *Flow
	net.StartFlow(src, dst, 1e9, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunFor(2 * time.Second)
	net.KillNode(src)
	sched.RunFor(time.Second)
	if done == nil || done.Err() != ErrAborted {
		t.Fatalf("flow should abort on node kill, got %+v", done)
	}
	if !src.Failed() {
		t.Fatal("node should report failed")
	}
	net.RestoreNode(src)
	if src.Failed() {
		t.Fatal("node should report healthy after restore")
	}
}

func TestFailedNodeStallsNewFlows(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	net.KillNode(src)
	var done *Flow
	net.StartFlow(src, dst, 10e6, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunFor(30 * time.Second)
	if done != nil {
		t.Fatal("flow through failed node should not complete")
	}
	net.RestoreNode(src)
	sched.RunFor(30 * time.Second)
	if done == nil {
		t.Fatal("flow should complete after restore")
	}
}

func TestSetLinkScale(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	net.SetLinkScale("A", "B", 0.5)
	var done *Flow
	net.StartFlow(src, dst, 50e6, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunUntil(time.Minute)
	if done == nil {
		t.Fatal("flow did not complete")
	}
	want := 10 * time.Second // 50 MB at 5 MB/s
	if d := done.Duration(); d < want-100*time.Millisecond || d > want+300*time.Millisecond {
		t.Fatalf("scaled duration = %v, want ~%v", d, want)
	}
	if got := net.CapacityNow("A", "B"); math.Abs(got-5) > 0.1 {
		t.Fatalf("CapacityNow = %v, want ~5", got)
	}
}

func TestEgressAccounting(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	net.StartFlow(src, dst, 50e6, FlowOpts{}, func(*Flow) {})
	sched.RunUntil(time.Minute)
	if got := net.EgressBytes("A"); got != 50e6 {
		t.Fatalf("EgressBytes(A) = %d, want 50e6", got)
	}
	if got := net.EgressBytes("B"); got != 0 {
		t.Fatalf("EgressBytes(B) = %d, want 0 (inbound free)", got)
	}
	// Intra-site flows are not egress.
	a2 := net.NewNode("A", cloud.Small)
	net.StartFlow(src, a2, 10e6, FlowOpts{}, func(*Flow) {})
	sched.RunFor(time.Minute)
	if got := net.EgressBytes("A"); got != 50e6 {
		t.Fatalf("intra-site flow counted as egress: %d", got)
	}
}

func TestProbeTracksCapacity(t *testing.T) {
	sched := simtime.New()
	opt := quietOpts()
	opt.ProbeNoise = 0.05
	net := New(sched, quietTopo(), rng.New(1), opt)
	sum := 0.0
	const n = 500
	for i := 0; i < n; i++ {
		sum += net.Probe(0) // A → B, the quiet topology's first link
	}
	mean := sum / n
	if math.Abs(mean-10)/10 > 0.03 {
		t.Fatalf("probe mean = %v, want ~10", mean)
	}
}

func TestVariabilityMovesCapacity(t *testing.T) {
	sched := simtime.New()
	topo := cloud.NewTopology(120, 2*time.Millisecond)
	topo.AddSite(&cloud.Site{ID: "A"})
	topo.AddSite(&cloud.Site{ID: "B"})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "B", BaseMBps: 10, RTT: 10 * time.Millisecond, Jitter: 0.3})
	net := New(sched, topo, rng.New(7), Options{GlitchMeanGap: -1})
	seen := make(map[int]bool)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		sched.RunFor(5 * time.Second)
		c := net.CapacityNow("A", "B")
		seen[int(c)] = true
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	if len(seen) < 5 {
		t.Fatalf("capacity barely moves: %d distinct integer levels", len(seen))
	}
	if lo < 10*0.15-1e-9 || hi > 10*1.8+1e-9 {
		t.Fatalf("capacity out of clamp: [%v, %v]", lo, hi)
	}
	if hi-lo < 2 {
		t.Fatalf("variability range too small: [%v, %v]", lo, hi)
	}
}

func TestGlitchesOccur(t *testing.T) {
	sched := simtime.New()
	topo := quietTopo()
	opt := Options{GlitchMeanGap: 2 * time.Minute, GlitchMeanDur: 30 * time.Second}
	net := New(sched, topo, rng.New(3), opt)
	dips := 0
	for i := 0; i < 5000; i++ {
		sched.RunFor(2 * time.Second)
		if net.CapacityNow("A", "B") < 7 {
			dips++
		}
	}
	if dips == 0 {
		t.Fatal("no capacity glitches observed in ~3 virtual hours")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		sched := simtime.New()
		topo := cloud.DefaultAzure()
		net := New(sched, topo, rng.New(99), Options{})
		var durs []time.Duration
		for i := 0; i < 6; i++ {
			src := net.NewNode(cloud.NorthEU, cloud.Small)
			dst := net.NewNode(cloud.NorthUS, cloud.Small)
			size := int64(20e6 + float64(i)*7e6)
			start := time.Duration(i) * 3 * time.Second
			sched.At(start, func() {
				net.StartFlow(src, dst, size, FlowOpts{}, func(f *Flow) {
					durs = append(durs, f.Duration())
				})
			})
		}
		sched.RunUntil(10 * time.Minute)
		return durs
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 6 {
		t.Fatalf("runs completed %d and %d flows, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: flow %d took %v then %v", i, a[i], b[i])
		}
	}
}

func TestStartFlowValidation(t *testing.T) {
	_, net := newQuiet(t)
	n1 := net.NewNode("A", cloud.Small)
	for name, fn := range map[string]func(){
		"self-flow":     func() { net.StartFlow(n1, n1, 1, FlowOpts{}, nil) },
		"zero size":     func() { net.StartFlow(n1, net.NewNode("B", cloud.Small), 0, FlowOpts{}, nil) },
		"unknown site":  func() { net.NewNode("Z", cloud.Small) },
		"negative size": func() { net.StartFlow(n1, net.NewNode("B", cloud.Small), -5, FlowOpts{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewNodesCountAndIDs(t *testing.T) {
	_, net := newQuiet(t)
	nodes := net.NewNodes("A", cloud.Small, 5)
	if len(nodes) != 5 {
		t.Fatalf("NewNodes returned %d", len(nodes))
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n.ID] {
			t.Fatalf("duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		if n.Site != "A" {
			t.Fatalf("node in wrong site: %+v", n)
		}
	}
}

func TestDurationUnfinishedAndCancelled(t *testing.T) {
	sched, net := newQuiet(t)
	src := net.NewNode("A", cloud.Small)
	dst := net.NewNode("B", cloud.Small)
	f := net.StartFlow(src, dst, 1e9, FlowOpts{}, nil)
	if d := f.Duration(); d != 0 {
		t.Fatalf("Duration before activation = %v, want 0", d)
	}
	sched.RunFor(2 * time.Second)
	if d := f.Duration(); d != 0 {
		t.Fatalf("Duration of in-progress flow = %v, want 0", d)
	}
	net.CancelFlow(f)
	if d := f.Duration(); d != 2*time.Second {
		t.Fatalf("Duration of cancelled flow = %v, want 2s (elapsed until abort)", d)
	}
}
