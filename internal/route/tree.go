package route

import (
	"fmt"
	"sort"

	"sage/internal/cloud"
)

// Tree is a dissemination tree rooted at a source site: the same data is
// sent once over each tree edge, and every site forwards to its children.
// Compared to unicasting to every destination, a tree crosses expensive
// shared segments (e.g. the Atlantic) once instead of once per destination.
type Tree struct {
	Root cloud.SiteID
	// Parent maps every non-root tree site to its parent.
	Parent map[cloud.SiteID]cloud.SiteID
	// Bottleneck per destination: the minimum edge width on its root path.
	Bottleneck map[cloud.SiteID]float64
}

// Edges returns the tree's (parent, child) edges sorted by (parent, child).
func (t Tree) Edges() [][2]cloud.SiteID {
	out := make([][2]cloud.SiteID, 0, len(t.Parent))
	for c, p := range t.Parent {
		out = append(out, [2]cloud.SiteID{p, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// String renders "NEU -> {EUS -> {NUS, SUS}}" style edges.
func (t Tree) String() string {
	s := string(t.Root)
	for _, e := range t.Edges() {
		s += fmt.Sprintf(" %s>%s", e[0], e[1])
	}
	return s
}

// WidestTree builds a dissemination tree from root to every destination,
// maximizing each destination's bottleneck width (max-bottleneck spanning
// tree via Prim, pruned to the destinations). Intermediate sites are used as
// relays when they widen paths. ok is false when any destination is
// unreachable.
func (g *Graph) WidestTree(root cloud.SiteID, dests []cloud.SiteID) (Tree, bool) {
	if _, ok := g.index[root]; !ok {
		panic(fmt.Sprintf("route: unknown root %q", root))
	}
	need := make(map[cloud.SiteID]bool, len(dests))
	for _, d := range dests {
		if _, ok := g.index[d]; !ok {
			panic(fmt.Sprintf("route: unknown destination %q", d))
		}
		if d != root {
			need[d] = true
		}
	}
	// Prim on the bottleneck metric: grow from root, always attaching the
	// site whose best incoming edge from the tree is widest (ties broken by
	// site ID for determinism).
	inTree := map[cloud.SiteID]bool{root: true}
	parent := make(map[cloud.SiteID]cloud.SiteID)
	width := make(map[cloud.SiteID]float64) // bottleneck of the root path
	width[root] = 0                         // unused for root
	bestEdge := func() (cloud.SiteID, cloud.SiteID, float64) {
		var bu, bv cloud.SiteID
		best := 0.0
		for _, u := range g.sites {
			if !inTree[u] {
				continue
			}
			for _, v := range g.sites {
				if inTree[v] || u == v {
					continue
				}
				w := g.Edge(u, v)
				if w <= 0 {
					continue
				}
				// The candidate's bottleneck is min(path to u, edge).
				if u != root && width[u] < w {
					w = width[u]
				}
				if w > best || (w == best && bv != "" && v < bv) {
					bu, bv, best = u, v, w
				}
			}
		}
		return bu, bv, best
	}
	for len(inTree) < len(g.sites) {
		u, v, w := bestEdge()
		if w <= 0 {
			break // remaining sites unreachable
		}
		inTree[v] = true
		parent[v] = u
		width[v] = w
	}
	for d := range need {
		if !inTree[d] {
			return Tree{}, false
		}
	}
	// Prune: keep only sites on a root->destination path.
	keep := map[cloud.SiteID]bool{root: true}
	for d := range need {
		for at := d; at != root; at = parent[at] {
			keep[at] = true
		}
	}
	pruned := make(map[cloud.SiteID]cloud.SiteID)
	bottleneck := make(map[cloud.SiteID]float64, len(need))
	for s := range keep {
		if s != root {
			pruned[s] = parent[s]
		}
	}
	for d := range need {
		bottleneck[d] = width[d]
	}
	return Tree{Root: root, Parent: pruned, Bottleneck: bottleneck}, true
}
