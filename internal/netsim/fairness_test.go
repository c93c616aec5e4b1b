package netsim

import (
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// These tests pin the fluid solver's allocation invariants by inspecting
// live flow rates mid-simulation.

// startN starts n flows from distinct A-nodes to distinct B-nodes and
// advances past activation.
func startN(sched *simtime.Scheduler, net *Network, n int) []*Flow {
	flows := make([]*Flow, n)
	for i := range flows {
		src := net.NewNode("A", cloud.Medium)
		dst := net.NewNode("B", cloud.Medium)
		flows[i] = net.StartFlow(src, dst, 1e12, FlowOpts{}, nil)
	}
	sched.RunFor(time.Second)
	return flows
}

func TestFairnessEqualShares(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(9), quietOpts())
	flows := startN(sched, net, 4)
	want := flows[0].Rate()
	if want <= 0 {
		t.Fatal("no allocation")
	}
	for i, f := range flows {
		if math.Abs(f.Rate()-want) > 1e-9 {
			t.Fatalf("flow %d rate %v != %v (symmetric flows must share equally)", i, f.Rate(), want)
		}
	}
}

func TestFairnessCapacityConservation(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(9), quietOpts())
	flows := startN(sched, net, 5)
	total := 0.0
	for _, f := range flows {
		total += f.Rate()
	}
	// Capacity with 5 distinct senders: 10 * 5^0.65.
	cap := 10 * math.Pow(5, 0.65)
	if total > cap+1e-6 {
		t.Fatalf("allocated %v MB/s exceeds link capacity %v", total, cap)
	}
	if total < cap*0.99 {
		t.Fatalf("work-conservation violated: %v of %v allocated", total, cap)
	}
}

func TestFairnessCappedFlowRedistributes(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(9), quietOpts())
	// Two uncapped flows plus one capped at 1 MB/s.
	a1, b1 := net.NewNode("A", cloud.Medium), net.NewNode("B", cloud.Medium)
	a2, b2 := net.NewNode("A", cloud.Medium), net.NewNode("B", cloud.Medium)
	a3, b3 := net.NewNode("A", cloud.Medium), net.NewNode("B", cloud.Medium)
	f1 := net.StartFlow(a1, b1, 1e12, FlowOpts{}, nil)
	f2 := net.StartFlow(a2, b2, 1e12, FlowOpts{}, nil)
	f3 := net.StartFlow(a3, b3, 1e12, FlowOpts{CapMBps: 1}, nil)
	sched.RunFor(time.Second)
	if math.Abs(f3.Rate()-1) > 1e-9 {
		t.Fatalf("capped flow rate = %v, want 1", f3.Rate())
	}
	// The slack goes to the uncapped flows, equally.
	cap := 10 * math.Pow(3, 0.65)
	wantEach := (cap - 1) / 2
	for _, f := range []*Flow{f1, f2} {
		if math.Abs(f.Rate()-wantEach) > 1e-6 {
			t.Fatalf("uncapped rate = %v, want %v", f.Rate(), wantEach)
		}
	}
}

func TestFairnessNICBottleneck(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(9), quietOpts())
	// One Small sender (NIC 12.5) fanning out to three destinations inside
	// its own site: NIC is the bottleneck, split three ways.
	src := net.NewNode("A", cloud.Small)
	var flows []*Flow
	for i := 0; i < 3; i++ {
		dst := net.NewNode("A", cloud.Medium)
		flows = append(flows, net.StartFlow(src, dst, 1e12, FlowOpts{}, nil))
	}
	sched.RunFor(time.Second)
	for _, f := range flows {
		if math.Abs(f.Rate()-12.5/3) > 1e-9 {
			t.Fatalf("NIC share = %v, want %v", f.Rate(), 12.5/3)
		}
	}
}

func TestFairnessMaxMinProperty(t *testing.T) {
	// Max-min definition: no flow can gain rate without a smaller-or-equal
	// flow losing. Construct an asymmetric scenario and verify the
	// bottlenecked flow gets its fair share while the other takes the rest
	// of its own bottleneck.
	sched := simtime.New()
	topo := cloud.NewTopology(250, 2*time.Millisecond)
	topo.AddSite(&cloud.Site{ID: "A"})
	topo.AddSite(&cloud.Site{ID: "B"})
	topo.AddSite(&cloud.Site{ID: "C"})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "B", BaseMBps: 10, RTT: 10 * time.Millisecond, Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "C", BaseMBps: 4, RTT: 10 * time.Millisecond, Jitter: 1e-9})
	net := New(sched, topo, rng.New(9), quietOpts())
	src := net.NewNode("A", cloud.XLarge) // NIC 100, not binding
	b := net.NewNode("B", cloud.XLarge)
	c := net.NewNode("C", cloud.XLarge)
	fb := net.StartFlow(src, b, 1e12, FlowOpts{}, nil)
	fc := net.StartFlow(src, c, 1e12, FlowOpts{}, nil)
	sched.RunFor(time.Second)
	if math.Abs(fc.Rate()-4) > 1e-9 {
		t.Fatalf("A>C flow = %v, want its own link capacity 4", fc.Rate())
	}
	if math.Abs(fb.Rate()-10) > 1e-9 {
		t.Fatalf("A>B flow = %v, want full 10 (not dragged down by the slow flow)", fb.Rate())
	}
}

func TestRatesRecomputeOnDeparture(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(9), quietOpts())
	src := net.NewNode("A", cloud.Medium)
	d1 := net.NewNode("B", cloud.Medium)
	d2 := net.NewNode("B", cloud.Medium)
	f1 := net.StartFlow(src, d1, 1e12, FlowOpts{}, nil)
	f2 := net.StartFlow(src, d2, 30e6, FlowOpts{}, nil)
	sched.RunFor(time.Second)
	if math.Abs(f1.Rate()-5) > 1e-9 {
		t.Fatalf("shared rate = %v, want 5", f1.Rate())
	}
	// f2 (30 MB at 5 MB/s) finishes ~6s; f1 then gets the whole link.
	sched.RunFor(10 * time.Second)
	if !f2.Finished() {
		t.Fatal("f2 should have finished")
	}
	if math.Abs(f1.Rate()-10) > 1e-6 {
		t.Fatalf("rate after departure = %v, want 10", f1.Rate())
	}
}

// checkMaxMinInvariants asserts, over the current allocation, that
// (a) capacity conservation holds: no resource carries more rate than its
// current capacity; and (b) the max-min property holds: every active flow is
// bottlenecked, i.e. crosses at least one saturated resource on which its
// rate is maximal (so it cannot gain rate without a smaller-or-equal flow
// losing).
func checkMaxMinInvariants(t *testing.T, net *Network) {
	t.Helper()
	resources := map[*resource]bool{}
	var active []*Flow
	for _, f := range net.live {
		if !f.active || f.finished {
			continue
		}
		active = append(active, f)
		for _, r := range f.resources {
			resources[r] = true
		}
	}
	load := map[*resource]float64{}
	for r := range resources {
		sum := 0.0
		for _, f := range r.flows {
			sum += f.Rate()
		}
		load[r] = sum
		cap := r.capacity(len(r.flows))
		if sum > cap+1e-6*cap+1e-9 {
			t.Fatalf("resource %s over-subscribed: %v of %v MB/s", r.name, sum, cap)
		}
	}
	for _, f := range active {
		bottlenecked := false
		for _, r := range f.resources {
			cap := r.capacity(len(r.flows))
			saturated := load[r] >= cap-1e-6*cap-1e-9
			maximal := true
			for _, g := range r.flows {
				if g.Rate() > f.Rate()+1e-6*f.Rate()+1e-9 {
					maximal = false
					break
				}
			}
			if saturated && maximal {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("flow %d (rate %v) has no saturated bottleneck resource: max-min violated", f.ID, f.Rate())
		}
	}
}

// TestMaxMinInvariantsUnderChurn starts, cancels and completes randomized
// flow batches and re-checks capacity conservation and the max-min property
// after every churn step. This is the property-style safety net for the
// incremental allocator's bookkeeping (per-resource flow lists, epoch marks,
// scratch reuse).
func TestMaxMinInvariantsUnderChurn(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(1234), quietOpts())
	r := rng.New(5678)
	sites := []cloud.SiteID{"A", "B", "C"}
	classes := []cloud.VMClass{cloud.Small, cloud.Medium, cloud.XLarge}
	var nodes []*Node
	for _, s := range sites {
		for i := 0; i < 4; i++ {
			nodes = append(nodes, net.NewNode(s, classes[r.Intn(len(classes))]))
		}
	}
	var flows []*Flow
	for round := 0; round < 80; round++ {
		// Start a random batch, sometimes capped, sometimes intra-site.
		for i := 0; i < 1+r.Intn(5); i++ {
			src := nodes[r.Intn(len(nodes))]
			dst := nodes[r.Intn(len(nodes))]
			if src == dst {
				continue
			}
			var opts FlowOpts
			if r.Intn(4) == 0 {
				opts.CapMBps = 0.5 + 3*r.Float64()
			}
			size := int64(1e6 + r.Float64()*60e6)
			flows = append(flows, net.StartFlow(src, dst, size, opts, nil))
		}
		// Cancel a random victim now and then.
		if len(flows) > 0 && r.Intn(3) == 0 {
			victim := flows[r.Intn(len(flows))]
			if !victim.Finished() {
				net.CancelFlow(victim)
			}
		}
		// Let time pass so activations fire and small flows complete.
		sched.RunFor(time.Duration(r.Intn(4000)) * time.Millisecond)
		checkMaxMinInvariants(t, net)
		// Compact the finished flows out of the working set.
		live := flows[:0]
		for _, f := range flows {
			if !f.Finished() {
				live = append(live, f)
			}
		}
		flows = live
	}
	if net.ActiveFlows() == 0 {
		t.Fatal("churn test ended with no live flows; workload too weak to exercise the allocator")
	}
}
