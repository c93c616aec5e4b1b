package netsim

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
)

func TestCrossTrafficSlowsForegroundFlows(t *testing.T) {
	run := func(crossGap time.Duration) time.Duration {
		sched := simtime.New()
		net := New(sched, quietTopo(), rng.New(5), Options{
			GlitchMeanGap:       -1,
			ProbeNoise:          1e-9,
			CrossTrafficMeanGap: crossGap,
		})
		src := net.NewNode("A", cloud.Medium)
		dst := net.NewNode("B", cloud.Medium)
		var done *Flow
		net.StartFlow(src, dst, 500e6, FlowOpts{}, func(f *Flow) { done = f })
		sched.RunUntil(2 * time.Hour)
		if done == nil {
			t.Fatal("flow did not complete")
		}
		return done.Duration()
	}
	calm := run(-1)               // disabled (negative gap never schedules)
	busy := run(15 * time.Second) // heavy tenant load
	light := run(10 * time.Minute)
	if busy <= calm {
		t.Fatalf("cross traffic had no effect: calm %v vs busy %v", calm, busy)
	}
	if light > busy {
		t.Fatalf("lighter cross traffic (%v) slower than heavy (%v)", light, busy)
	}
}

func TestCrossTrafficNotBilledAsEgress(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(5), Options{
		GlitchMeanGap:       -1,
		CrossTrafficMeanGap: 10 * time.Second,
	})
	sched.RunFor(30 * time.Minute)
	for _, site := range []cloud.SiteID{"A", "B", "C"} {
		if got := net.EgressBytes(site); got != 0 {
			t.Fatalf("background traffic billed as egress at %s: %d bytes", site, got)
		}
	}
}

func TestBackgroundFlowsDoNotInflateAggregation(t *testing.T) {
	// A foreground flow sharing its link with background traffic must not
	// benefit from a larger sender count: capacity stays base*1, shared.
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(5), Options{GlitchMeanGap: -1, ProbeNoise: 1e-9})
	src := net.NewNode("A", cloud.Medium)
	dst := net.NewNode("B", cloud.Medium)
	bgSrc := net.NewNode("A", cloud.XLarge)
	bgDst := net.NewNode("B", cloud.XLarge)
	// Long-lived background flow.
	net.StartFlow(bgSrc, bgDst, 1e12, FlowOpts{background: true}, nil)
	var done *Flow
	net.StartFlow(src, dst, 50e6, FlowOpts{}, func(f *Flow) { done = f })
	sched.RunUntil(time.Hour)
	if done == nil {
		t.Fatal("flow did not complete")
	}
	// Link capacity 10 (one real sender), split between two flows: the
	// foreground flow gets ~5 MB/s -> ~10s. If background counted toward
	// aggregation, capacity would be ~15.7 and the flow would finish in
	// ~6.4s.
	if d := done.Duration(); d < 9*time.Second || d > 12*time.Second {
		t.Fatalf("foreground duration = %v, want ~10s", d)
	}
}
