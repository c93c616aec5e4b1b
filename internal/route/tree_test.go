package route

import (
	"testing"

	"sage/internal/cloud"
)

// fan builds a topology where S reaches {A, B, C} best through relay R:
//
//	S -> R: 10,  R -> A/B/C: 20 each,  S -> A/B/C: 3 direct
func fan() *Graph {
	g := NewGraph([]cloud.SiteID{"S", "R", "A", "B", "C"})
	g.SetEdge("S", "R", 10)
	for _, d := range []cloud.SiteID{"A", "B", "C"} {
		g.SetEdge("R", d, 20)
		g.SetEdge("S", d, 3)
	}
	return g
}

func TestWidestTreeUsesRelay(t *testing.T) {
	tree, ok := fan().WidestTree("S", []cloud.SiteID{"A", "B", "C"})
	if !ok {
		t.Fatal("no tree")
	}
	for _, d := range []cloud.SiteID{"A", "B", "C"} {
		if tree.Parent[d] != "R" {
			t.Fatalf("dest %s parent = %s, want relay R", d, tree.Parent[d])
		}
		if tree.Bottleneck[d] != 10 {
			t.Fatalf("dest %s bottleneck = %v, want 10 (S>R)", d, tree.Bottleneck[d])
		}
	}
	if tree.Parent["R"] != "S" {
		t.Fatal("relay should hang off the root")
	}
}

func TestWidestTreePrefersDirectWhenWider(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"S", "R", "A"})
	g.SetEdge("S", "A", 15)
	g.SetEdge("S", "R", 10)
	g.SetEdge("R", "A", 20)
	tree, ok := g.WidestTree("S", []cloud.SiteID{"A"})
	if !ok {
		t.Fatal("no tree")
	}
	if tree.Parent["A"] != "S" {
		t.Fatalf("A parent = %s, want direct from S", tree.Parent["A"])
	}
	// The unused relay must be pruned.
	if _, inTree := tree.Parent["R"]; inTree {
		t.Fatal("relay R should be pruned from the tree")
	}
}

func TestWidestTreePrunesNonDestLeaves(t *testing.T) {
	tree, ok := fan().WidestTree("S", []cloud.SiteID{"A"})
	if !ok {
		t.Fatal("no tree")
	}
	for s := range tree.Parent {
		if s == "B" || s == "C" {
			t.Fatalf("non-destination leaf %s not pruned: %v", s, tree)
		}
	}
}

func TestWidestTreeUnreachable(t *testing.T) {
	g := NewGraph([]cloud.SiteID{"S", "A", "B"})
	g.SetEdge("S", "A", 5)
	if _, ok := g.WidestTree("S", []cloud.SiteID{"A", "B"}); ok {
		t.Fatal("tree with unreachable destination should fail")
	}
}

func TestWidestTreePanicsOnUnknownSites(t *testing.T) {
	g := fan()
	for name, fn := range map[string]func(){
		"unknown root": func() { g.WidestTree("Z", []cloud.SiteID{"A"}) },
		"unknown dest": func() { g.WidestTree("S", []cloud.SiteID{"Z"}) },
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

func TestTreeEdgesAndChildrenSorted(t *testing.T) {
	tree, _ := fan().WidestTree("S", []cloud.SiteID{"A", "B", "C"})
	edges := tree.Edges()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("edges unsorted: %v", edges)
		}
	}
	var kids []cloud.SiteID
	for _, e := range edges {
		if e[0] == "R" {
			kids = append(kids, e[1])
		}
	}
	if len(kids) != 3 || kids[0] != "A" || kids[2] != "C" {
		t.Fatalf("children of R = %v", kids)
	}
}

func TestWidestTreeOnDefaultAzureShape(t *testing.T) {
	// NEU -> all US sites: the tree should cross the Atlantic over the
	// widest transatlantic link (NEU>EUS, 11 MB/s) and fan out inside the
	// US mesh rather than paying four separate crossings.
	topo := cloud.DefaultAzure()
	g := GraphFromEstimates(topo.SiteIDs(), func(a, b cloud.SiteID) float64 {
		if l := topo.Link(a, b); l != nil {
			return l.BaseMBps
		}
		return 0
	})
	dests := []cloud.SiteID{cloud.NorthUS, cloud.SouthUS, cloud.EastUS, cloud.WestUS}
	tree, ok := g.WidestTree(cloud.NorthEU, dests)
	if !ok {
		t.Fatal("no tree")
	}
	atlantic := 0
	for _, e := range tree.Edges() {
		fromEU := e[0] == cloud.NorthEU || e[0] == cloud.WestEU
		toUS := e[1] != cloud.NorthEU && e[1] != cloud.WestEU
		if fromEU && toUS {
			atlantic++
		}
	}
	if atlantic != 1 {
		t.Fatalf("tree crosses the Atlantic %d times, want once: %v", atlantic, tree)
	}
	for _, d := range dests {
		if tree.Bottleneck[d] <= 0 {
			t.Fatalf("no bottleneck for %s", d)
		}
	}
}
