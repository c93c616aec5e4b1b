package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sage/internal/cloud"
)

func TestSpeedup(t *testing.T) {
	p := Default() // gain 0.55, cap 4
	if got := p.Speedup(1); got != 1 {
		t.Fatalf("Speedup(1) = %v", got)
	}
	if got := p.Speedup(3); math.Abs(got-2.1) > 1e-9 {
		t.Fatalf("Speedup(3) = %v, want 2.1", got)
	}
	if got := p.Speedup(100); got != 4 {
		t.Fatalf("Speedup(100) = %v, want cap 4", got)
	}
	if got := p.Speedup(0); got != 1 {
		t.Fatalf("Speedup(0) = %v, want clamp to 1", got)
	}
}

func TestTransferTimeSingleNode(t *testing.T) {
	p := Default()
	p.Intr = 1 // NIC cap out of the way
	// 100 MB at 10 MB/s = 10s.
	got := p.TransferTime(100e6, 10, 1)
	if math.Abs(got.Seconds()-10) > 1e-6 {
		t.Fatalf("TransferTime = %v, want 10s", got)
	}
}

func TestTransferTimeParallelSpeedup(t *testing.T) {
	p := Default()
	p.Intr = 1
	t1 := p.TransferTime(100e6, 10, 1)
	t3 := p.TransferTime(100e6, 10, 3)
	want := t1.Seconds() / 2.1
	if math.Abs(t3.Seconds()-want) > 1e-6 {
		t.Fatalf("3-node time = %v, want %v", t3.Seconds(), want)
	}
}

func TestEffectiveThroughputNICBound(t *testing.T) {
	p := Default() // Small NIC 12.5, intr 0.1 -> 1.25 MB/s per node
	got := p.EffectiveThroughput(10, 1)
	if math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("NIC-bound throughput = %v, want 1.25", got)
	}
	// With full intrusiveness, link-bound.
	p.Intr = 1
	if got := p.EffectiveThroughput(10, 1); got != 10 {
		t.Fatalf("link-bound throughput = %v, want 10", got)
	}
}

func TestTransferTimeDegenerate(t *testing.T) {
	p := Default()
	if got := p.TransferTime(100e6, 0, 3); got != time.Duration(math.MaxInt64) {
		t.Fatalf("zero throughput should predict MaxInt64, got %v", got)
	}
	if !math.IsInf(p.Cost(100e6, 0, 3), 1) {
		t.Fatal("zero-throughput cost should be +Inf")
	}
}

func TestCostComponents(t *testing.T) {
	p := Default()
	p.Intr = 1
	size := int64(1 << 30) // 1 GB
	tt := p.TransferTime(size, 10, 1)
	// One lane engages SitesPerLane (2) VMs.
	wantRes := 2 * tt.Hours() * cloud.Small.PricePerHour
	wantEgress := 0.12
	got := p.Cost(size, 10, 1)
	if math.Abs(got-(wantRes+wantEgress)) > 1e-9 {
		t.Fatalf("Cost = %v, want %v", got, wantRes+wantEgress)
	}
}

func TestCostKneeShape(t *testing.T) {
	// The published shape: time falls steeply over the first nodes while
	// cost stays nearly flat, then extra nodes cost money for no speedup.
	p := Default()
	p.Intr = 1
	size := int64(1 << 30)
	sweep := p.Sweep(size, 9, 10)
	if len(sweep) != 10 {
		t.Fatalf("sweep len %d", len(sweep))
	}
	// Time non-increasing.
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Time > sweep[i-1].Time {
			t.Fatalf("time increased from n=%d to n=%d", i, i+1)
		}
	}
	// Past the speedup cap (n >= 7 with gain .55 cap 4), cost strictly rises.
	capN := int(math.Ceil((p.MaxSpeedup-1)/p.Gain)) + 1
	for i := capN; i < len(sweep); i++ {
		if sweep[i].Cost <= sweep[i-1].Cost {
			t.Fatalf("cost should rise past the speedup cap: n=%d cost %v vs %v",
				i+1, sweep[i].Cost, sweep[i-1].Cost)
		}
	}
	knee := p.Knee(size, 9, 10)
	if knee < 3 || knee > 8 {
		t.Fatalf("knee at %d nodes, expected mid-range", knee)
	}
}

func TestNodesForBudget(t *testing.T) {
	p := Default()
	p.Intr = 1
	size := int64(1 << 30)
	// Very generous budget: all nodes fit.
	if n, ok := p.NodesForBudget(size, 9, 100, 8); !ok || n != 8 {
		t.Fatalf("generous budget -> %d,%v; want 8,true", n, ok)
	}
	// Budget below the egress floor: nothing fits.
	if _, ok := p.NodesForBudget(size, 9, 0.01, 8); ok {
		t.Fatal("budget below egress cost must not fit")
	}
	// Budget slightly above single-node cost.
	c1 := p.Cost(size, 9, 1)
	n, ok := p.NodesForBudget(size, 9, c1*1.001, 8)
	if !ok || n < 1 {
		t.Fatalf("budget just above n=1 cost -> %d,%v", n, ok)
	}
}

func TestNodesForBudgetMonotoneInBudget(t *testing.T) {
	p := Default()
	p.Intr = 1
	size := int64(2 << 30)
	prev := 0
	for _, budget := range []float64{0.3, 0.35, 0.4, 0.5, 1, 5} {
		n, ok := p.NodesForBudget(size, 9, budget, 10)
		if !ok {
			n = 0
		}
		if n < prev {
			t.Fatalf("nodes decreased (%d -> %d) as budget rose to %v", prev, n, budget)
		}
		prev = n
	}
}

func TestNodesForDeadline(t *testing.T) {
	p := Default()
	p.Intr = 1
	size := int64(1 << 30)
	t1 := p.TransferTime(size, 9, 1)
	// Deadline equal to single-node time: 1 node suffices.
	if n, ok := p.NodesForDeadline(size, 9, t1, 8); !ok || n != 1 {
		t.Fatalf("deadline=t1 -> %d,%v; want 1,true", n, ok)
	}
	// Half the time: needs roughly 1/(0.5) speedup -> about 3 nodes.
	n, ok := p.NodesForDeadline(size, 9, t1/2, 8)
	if !ok || n < 2 || n > 4 {
		t.Fatalf("deadline=t1/2 -> %d,%v", n, ok)
	}
	// Impossible deadline.
	if _, ok := p.NodesForDeadline(size, 9, time.Millisecond, 8); ok {
		t.Fatal("impossible deadline should report false")
	}
}

func TestFitGainRecovers(t *testing.T) {
	true_ := Params{Gain: 0.6, MaxSpeedup: 100, Intr: 1, Class: cloud.Small, EgressPerGB: 0}
	var obs []Observation
	for n := 1; n <= 5; n++ {
		obs = append(obs, Observation{Nodes: n, Duration: true_.TransferTime(500e6, 10, n)})
	}
	g, ok := FitGain(obs)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(g-0.6) > 0.05 {
		t.Fatalf("fitted gain = %v, want ~0.6", g)
	}
}

func TestFitGainNeedsVariety(t *testing.T) {
	if _, ok := FitGain(nil); ok {
		t.Fatal("empty observations should fail")
	}
	if _, ok := FitGain([]Observation{{Nodes: 1, Duration: time.Second}}); ok {
		t.Fatal("single node count should fail")
	}
	if _, ok := FitGain([]Observation{
		{Nodes: 3, Duration: time.Second},
		{Nodes: 3, Duration: 2 * time.Second},
	}); ok {
		t.Fatal("one distinct node count should fail")
	}
}

func TestFitGainWithoutBaseline(t *testing.T) {
	// Observations at n = 2 and n = 4 only — no n = 1 baseline.
	true_ := Params{Gain: 0.5, MaxSpeedup: 100, Intr: 1, Class: cloud.Small, EgressPerGB: 0}
	obs := []Observation{
		{Nodes: 2, Duration: true_.TransferTime(500e6, 10, 2)},
		{Nodes: 4, Duration: true_.TransferTime(500e6, 10, 4)},
	}
	g, ok := FitGain(obs)
	if !ok {
		t.Fatal("fit without baseline failed")
	}
	if math.Abs(g-0.5) > 0.05 {
		t.Fatalf("fitted gain = %v, want ~0.5", g)
	}
}

func TestFitGainClamps(t *testing.T) {
	// Anti-speedup observations (more nodes slower) must clamp to 0.
	obs := []Observation{
		{Nodes: 1, Duration: time.Second},
		{Nodes: 4, Duration: 5 * time.Second},
	}
	g, ok := FitGain(obs)
	if !ok || g != 0 {
		t.Fatalf("fit = %v,%v; want 0,true", g, ok)
	}
}

// Property: predicted time is non-increasing and cost components
// non-negative for any sane parameterization.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(gRaw, thrRaw uint16, sizeRaw uint32) bool {
		p := Default()
		p.Gain = float64(gRaw%100) / 100
		p.Intr = 1
		thr := 1 + float64(thrRaw%100)
		size := int64(sizeRaw%100e6) + 1e6
		prev := time.Duration(math.MaxInt64)
		for n := 1; n <= 12; n++ {
			tt := p.TransferTime(size, thr, n)
			if tt > prev {
				return false
			}
			prev = tt
			if p.ResourceCost(tt, n) < 0 || p.EgressCost(size) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
