package route

import (
	"math"
	"testing"

	"sage/internal/cloud"
	"sage/internal/model"
)

// diamond builds   A -> B -> D   (10, 10)
//
//	A -> C -> D   (6, 8)
//	A -> D        (4)
func diamond() *Graph {
	g := NewGraph([]cloud.SiteID{"A", "B", "C", "D"})
	g.SetEdge("A", "B", 10)
	g.SetEdge("B", "D", 10)
	g.SetEdge("A", "C", 6)
	g.SetEdge("C", "D", 8)
	g.SetEdge("A", "D", 4)
	return g
}

func TestWidestPathPrefersBottleneck(t *testing.T) {
	p, ok := diamond().WidestPath("A", "D")
	if !ok {
		t.Fatal("no path")
	}
	if p.Bottleneck != 10 {
		t.Fatalf("bottleneck = %v, want 10", p.Bottleneck)
	}
	want := []cloud.SiteID{"A", "B", "D"}
	if len(p.Sites) != 3 {
		t.Fatalf("path = %v, want %v", p.Sites, want)
	}
	for i := range want {
		if p.Sites[i] != want[i] {
			t.Fatalf("path = %v, want %v", p.Sites, want)
		}
	}
}

func TestWidestPathTieBreaksOnHops(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"A", "B", "C"})
	g.SetEdge("A", "C", 5)
	g.SetEdge("A", "B", 5)
	g.SetEdge("B", "C", 5)
	p, ok := g.WidestPath("A", "C")
	if !ok || len(p.Sites) != 2 {
		t.Fatalf("path = %v, want direct A>C on tie", p)
	}
}

func TestWidestPathUnreachable(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"A", "B"})
	if _, ok := g.WidestPath("A", "B"); ok {
		t.Fatal("unreachable dst should report false")
	}
}

func TestWidestPathDirectWhenOnlyOption(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"A", "B"})
	g.SetEdge("A", "B", 3)
	p, ok := g.WidestPath("A", "B")
	if !ok || len(p.Sites) != 2 || p.Bottleneck != 3 {
		t.Fatalf("path = %+v, ok=%v", p, ok)
	}
}

func TestWidestPathPanicsOnBadArgs(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"A", "B"})
	for name, fn := range map[string]func(){
		"unknown": func() { g.WidestPath("A", "Z") },
		"same":    func() { g.WidestPath("A", "A") },
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

func TestAlternativePathsDisjoint(t *testing.T) {
	paths := diamond().AlternativePaths("A", "D", 5)
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3", len(paths))
	}
	if paths[0].Bottleneck != 10 || paths[1].Bottleneck != 6 || paths[2].Bottleneck != 4 {
		t.Fatalf("bottlenecks = %v,%v,%v; want 10,6,4",
			paths[0].Bottleneck, paths[1].Bottleneck, paths[2].Bottleneck)
	}
	// Non-increasing by construction.
	for i := 1; i < len(paths); i++ {
		if paths[i].Bottleneck > paths[i-1].Bottleneck {
			t.Fatal("alternative paths not in decreasing width order")
		}
	}
}

func TestAlternativePathsRespectsK(t *testing.T) {
	paths := diamond().AlternativePaths("A", "D", 2)
	if len(paths) != 2 {
		t.Fatalf("k=2 returned %d paths", len(paths))
	}
}

func planParams() model.Params {
	return model.Params{Gain: 0.5, MaxSpeedup: 3, Intr: 1, Class: cloud.XLarge, EgressPerGB: 0.12}
}

func TestPlanMultipathSinglePathSmallBudget(t *testing.T) {
	// Budget for exactly one lane on the widest path (2 sites per lane).
	alloc, ok := PlanMultipath(diamond(), "A", "D", 3, planParams(), 3)
	if !ok {
		t.Fatal("planning failed")
	}
	if len(alloc.Paths) != 1 || alloc.Paths[0].Lanes != 1 {
		t.Fatalf("alloc = %+v, want single lane on widest path", alloc)
	}
	if alloc.Paths[0].Path.Bottleneck != 10 {
		t.Fatal("lane not on widest path")
	}
}

func TestPlanMultipathOpensSecondPath(t *testing.T) {
	// Large budget: the speedup cap (3) limits the widest path's useful
	// lanes, so the planner must open alternatives.
	alloc, ok := PlanMultipath(diamond(), "A", "D", 40, planParams(), 3)
	if !ok {
		t.Fatal("planning failed")
	}
	if len(alloc.Paths) < 2 {
		t.Fatalf("want multiple paths, got %+v", alloc)
	}
	if alloc.PredictedMBps <= 10*3 {
		// Path A>B>D alone caps at bottleneck 10 x speedup 3.
		t.Fatalf("multipath predicted %v MB/s, no better than single path cap", alloc.PredictedMBps)
	}
}

func TestPlanMultipathNodeAccounting(t *testing.T) {
	alloc, ok := PlanMultipath(diamond(), "A", "D", 12, planParams(), 3)
	if !ok {
		t.Fatal("planning failed")
	}
	if alloc.TotalNodes > 12 {
		t.Fatalf("plan uses %d nodes, budget 12", alloc.TotalNodes)
	}
	sum := 0
	for _, pa := range alloc.Paths {
		if pa.NodesUsed != pa.Lanes*len(pa.Path.Sites) {
			t.Fatalf("NodesUsed mismatch: %+v", pa)
		}
		sum += pa.NodesUsed
	}
	if sum != alloc.TotalNodes {
		t.Fatal("TotalNodes != sum of path nodes")
	}
}

func TestPlanMultipathMonotoneInBudget(t *testing.T) {
	prev := 0.0
	for _, budget := range []int{2, 4, 8, 16, 32} {
		alloc, ok := PlanMultipath(diamond(), "A", "D", budget, planParams(), 3)
		if !ok {
			continue
		}
		if alloc.PredictedMBps+1e-9 < prev {
			t.Fatalf("throughput fell (%v -> %v) as budget rose to %d",
				prev, alloc.PredictedMBps, budget)
		}
		prev = alloc.PredictedMBps
	}
	if prev == 0 {
		t.Fatal("no plan succeeded")
	}
}

func TestPlanMultipathInsufficientBudget(t *testing.T) {
	if _, ok := PlanMultipath(diamond(), "A", "D", 1, planParams(), 3); ok {
		t.Fatal("1 node cannot host a 2-site lane; plan must fail")
	}
}

func TestPlanMultipathNoRoute(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"A", "B"})
	if _, ok := PlanMultipath(g, "A", "B", 10, planParams(), 3); ok {
		t.Fatal("plan on empty graph must fail")
	}
}

func TestGraphFromEstimates(t *testing.T) {
	sites := []cloud.SiteID{"A", "B", "C"}
	g := GraphFromEstimates(sites, func(a, b cloud.SiteID) float64 {
		if a == "A" && b == "B" {
			return 7
		}
		return -1
	})
	if g.Edge("A", "B") != 7 {
		t.Fatal("estimate not applied")
	}
	if g.Edge("B", "A") != 0 {
		t.Fatal("negative estimate should omit edge")
	}
}

func TestPathString(t *testing.T) {
	p := Path{Sites: []cloud.SiteID{"A", "B"}, Bottleneck: 1.5}
	if got := p.String(); got != "A>B (1.50 MB/s)" {
		t.Fatalf("String = %q", got)
	}
}

func TestPlanPredictionConsistency(t *testing.T) {
	par := planParams()
	alloc, ok := PlanMultipath(diamond(), "A", "D", 20, par, 3)
	if !ok {
		t.Fatal("planning failed")
	}
	total := 0.0
	for _, pa := range alloc.Paths {
		want := pa.Path.Bottleneck * par.Speedup(pa.Lanes)
		if math.Abs(pa.PredictedMBps-want) > 1e-9 {
			t.Fatalf("path prediction %v, want %v", pa.PredictedMBps, want)
		}
		total += pa.PredictedMBps
	}
	if math.Abs(total-alloc.PredictedMBps) > 1e-9 {
		t.Fatal("aggregate prediction != sum of paths")
	}
}
