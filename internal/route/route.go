// Package route plans inter-datacenter transfer routes over the monitored
// site graph. Public clouds expose no topology, so the graph's edge weights
// are the monitor's live throughput estimates, and path selection works at
// site granularity. The paper world has fewer than ten datacenters; the
// generated worlds have up to 500, so the internals are flat site-index
// arrays, adjacency lists and a reusable indexed max-heap rather than maps
// and per-call matrices.
//
// Three building blocks are provided:
//
//   - WidestPath: the path maximizing bottleneck throughput (modified
//     Dijkstra) — the "shortest path" of the throughput metric.
//   - AlternativePaths: a sequence of edge-disjoint-ish alternatives obtained
//     by repeatedly masking the previous widest path's edges.
//   - PlanMultipath: the multi-datacenter allocation loop — give the next
//     worker lane to the current path while its marginal throughput-per-node
//     beats opening the next-best path; otherwise open that path. This is
//     the elasticity-driven variant of flow scheduling that avoids full
//     link-state monitoring.
//
// For replan-heavy callers, Planner (planner.go) wraps one long-lived Graph
// with dirty-edge tracking and cached plans so that steady-state replans are
// allocation-free and usually O(dirty edges) instead of O(sites²).
//
// A Graph is not safe for concurrent use: WidestPath and AlternativePaths
// share per-graph scratch buffers (that is what makes them allocation-free).
package route

import (
	"fmt"
	"math"
	"sort"

	"sage/internal/cloud"
	"sage/internal/model"
)

// Graph is a directed site graph weighted by estimated single-lane
// throughput in MB/s. Zero or negative weights mean "unusable".
type Graph struct {
	sites []cloud.SiteID
	index map[cloud.SiteID]int
	// thr is the flattened n×n weight matrix: thr[from*n+to].
	thr []float64
	// out holds, per site, the ascending-index list of targets with a
	// positive edge — the adjacency view WidestPath iterates so sparse
	// graphs (hub-and-spoke worlds) pay O(E), not O(V²), per relaxation
	// sweep. Iteration order matches the old dense index-order scan, which
	// keeps tie-breaking byte-identical.
	out [][]int32
	// maskEpoch/curMask implement O(1)-reset edge masking: an edge is
	// masked iff maskEpoch[e] == curMask, and bumping curMask unmasks
	// everything. AlternativePaths masks previous paths' edges this way
	// instead of cloning the whole matrix.
	maskEpoch []uint32
	curMask   uint32
	ws        *widestScratch
}

// NewGraph builds a graph over the given sites with all edges unusable.
// Already-sorted site lists (e.g. Topology.SiteIDs) skip the defensive sort.
func NewGraph(sites []cloud.SiteID) *Graph {
	g := &Graph{
		sites: append([]cloud.SiteID(nil), sites...),
		index: make(map[cloud.SiteID]int, len(sites)),
	}
	if !siteIDsSorted(g.sites) {
		sort.Slice(g.sites, func(i, j int) bool { return g.sites[i] < g.sites[j] })
	}
	for i, s := range g.sites {
		g.index[s] = i
	}
	n := len(g.sites)
	g.thr = make([]float64, n*n)
	g.maskEpoch = make([]uint32, n*n)
	g.curMask = 1
	g.out = make([][]int32, n)
	return g
}

func siteIDsSorted(sites []cloud.SiteID) bool {
	for i := 1; i < len(sites); i++ {
		if sites[i] < sites[i-1] {
			return false
		}
	}
	return true
}

// lookup resolves a site pair, panicking like the original map-based
// implementation on unknown sites.
func (g *Graph) lookup(from, to cloud.SiteID) (int, int) {
	fi, ok1 := g.index[from]
	ti, ok2 := g.index[to]
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("route: unknown site in edge %s -> %s", from, to))
	}
	return fi, ti
}

// SetEdge sets the estimated throughput of the directed edge from -> to.
func (g *Graph) SetEdge(from, to cloud.SiteID, mbps float64) {
	fi, ti := g.lookup(from, to)
	if fi == ti {
		panic("route: self-edge")
	}
	g.setEdgeIdx(fi, ti, mbps)
}

// setEdgeIdx updates one edge weight and keeps the adjacency list in sync:
// positive weights are present, zero/negative weights absent, targets always
// in ascending index order.
func (g *Graph) setEdgeIdx(fi, ti int, mbps float64) {
	e := fi*len(g.sites) + ti
	old := g.thr[e]
	g.thr[e] = mbps
	wasLive, isLive := old > 0, mbps > 0
	if wasLive == isLive {
		return
	}
	adj := g.out[fi]
	t32 := int32(ti)
	pos := sort.Search(len(adj), func(i int) bool { return adj[i] >= t32 })
	if isLive {
		adj = append(adj, 0)
		copy(adj[pos+1:], adj[pos:])
		adj[pos] = t32
	} else {
		adj = append(adj[:pos], adj[pos+1:]...)
	}
	g.out[fi] = adj
}

// Edge returns the estimated throughput of the directed edge.
func (g *Graph) Edge(from, to cloud.SiteID) float64 {
	fi, ti := g.lookup(from, to)
	return g.thr[fi*len(g.sites)+ti]
}

// maskPathEdges masks every edge of the site-index path rev (hop pairs of
// consecutive entries) for the current mask epoch.
func (g *Graph) maskPathSites(sites []cloud.SiteID) {
	n := len(g.sites)
	for i := 0; i+1 < len(sites); i++ {
		fi, ti := g.lookup(sites[i], sites[i+1])
		g.maskEpoch[fi*n+ti] = g.curMask
	}
}

// clearMasks unmasks every edge in O(1) by advancing the mask epoch.
func (g *Graph) clearMasks() {
	g.curMask++
	if g.curMask == 0 { // wrapped: stale epochs could alias, so reset
		for i := range g.maskEpoch {
			g.maskEpoch[i] = 0
		}
		g.curMask = 1
	}
}

// Path is a site sequence with its bottleneck throughput.
type Path struct {
	Sites      []cloud.SiteID
	Bottleneck float64
}

// String renders "NEU>WEU>NUS (7.5 MB/s)".
func (p Path) String() string {
	s := ""
	for i, site := range p.Sites {
		if i > 0 {
			s += ">"
		}
		s += string(site)
	}
	return fmt.Sprintf("%s (%.2f MB/s)", s, p.Bottleneck)
}

// widestScratch holds the per-graph Dijkstra state reused across calls:
// labels, the indexed max-heap, and the path-reconstruction buffer.
type widestScratch struct {
	width []float64
	hops  []int32
	prev  []int32
	// pos is the heap bookkeeping per site: posUnseen (never labeled),
	// posDone (finalized), or the site's index in heap.
	pos  []int32
	heap []int32
	rev  []int32
}

const (
	posUnseen int32 = -1
	posDone   int32 = -2
)

func (g *Graph) scratch() *widestScratch {
	if g.ws == nil {
		n := len(g.sites)
		g.ws = &widestScratch{
			width: make([]float64, n),
			hops:  make([]int32, n),
			prev:  make([]int32, n),
			pos:   make([]int32, n),
			heap:  make([]int32, 0, n),
			rev:   make([]int32, 0, n),
		}
	}
	return g.ws
}

// better is the strict total order the frontier heap pops in: widest first,
// then fewest hops, then lowest site index. Because the order is total, the
// pop sequence — and therefore the returned path — is exactly the one the
// old linear selection scan produced.
func (ws *widestScratch) better(i, j int32) bool {
	if ws.width[i] != ws.width[j] {
		return ws.width[i] > ws.width[j]
	}
	if ws.hops[i] != ws.hops[j] {
		return ws.hops[i] < ws.hops[j]
	}
	return i < j
}

func (ws *widestScratch) siftUp(k int) {
	h := ws.heap
	for k > 0 {
		parent := (k - 1) / 2
		if !ws.better(h[k], h[parent]) {
			break
		}
		h[k], h[parent] = h[parent], h[k]
		ws.pos[h[k]] = int32(k)
		ws.pos[h[parent]] = int32(parent)
		k = parent
	}
}

func (ws *widestScratch) siftDown(k int) {
	h := ws.heap
	n := len(h)
	for {
		l, r := 2*k+1, 2*k+2
		best := k
		if l < n && ws.better(h[l], h[best]) {
			best = l
		}
		if r < n && ws.better(h[r], h[best]) {
			best = r
		}
		if best == k {
			return
		}
		h[k], h[best] = h[best], h[k]
		ws.pos[h[k]] = int32(k)
		ws.pos[h[best]] = int32(best)
		k = best
	}
}

func (ws *widestScratch) push(v int32) {
	ws.heap = append(ws.heap, v)
	ws.pos[v] = int32(len(ws.heap) - 1)
	ws.siftUp(len(ws.heap) - 1)
}

func (ws *widestScratch) pop() int32 {
	h := ws.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	ws.pos[h[0]] = 0
	ws.heap = h[:last]
	ws.pos[top] = posDone
	if last > 0 {
		ws.siftDown(0)
	}
	return top
}

// widestInto runs the widest-path Dijkstra from si, stopping once di is
// finalized, leaving the labels in the scratch. It allocates nothing once
// the scratch is warm. found reports whether di was reached.
func (g *Graph) widestInto(si, di int) bool {
	ws := g.scratch()
	n := len(g.sites)
	for i := 0; i < n; i++ {
		ws.width[i] = math.Inf(-1)
		ws.hops[i] = math.MaxInt32
		ws.prev[i] = -1
		ws.pos[i] = posUnseen
	}
	ws.heap = ws.heap[:0]
	ws.width[si] = math.Inf(1)
	ws.hops[si] = 0
	ws.push(int32(si))
	for len(ws.heap) > 0 {
		u := ws.pop()
		if int(u) == di {
			break
		}
		ui := int(u)
		uw := ws.width[u]
		uh := ws.hops[u]
		base := ui * n
		for _, v := range g.out[ui] {
			if ws.pos[v] == posDone {
				continue
			}
			e := base + int(v)
			if g.maskEpoch[e] == g.curMask {
				continue
			}
			w := g.thr[e]
			if uw < w {
				w = uw
			}
			if w > ws.width[v] || (w == ws.width[v] && uh+1 < ws.hops[v]) {
				ws.width[v] = w
				ws.hops[v] = uh + 1
				ws.prev[v] = int32(ui)
				if ws.pos[v] == posUnseen {
					ws.push(v)
				} else {
					ws.siftUp(int(ws.pos[v]))
				}
			}
		}
	}
	return ws.prev[di] != -1
}

// appendPathSites appends the si→di site sequence recorded in the scratch
// labels to buf and returns it (the reconstruction loop of the original
// implementation, writing into a caller-owned buffer).
func (g *Graph) appendPathSites(buf []cloud.SiteID, si, di int) []cloud.SiteID {
	ws := g.ws
	ws.rev = ws.rev[:0]
	for at := int32(di); at != -1; at = ws.prev[at] {
		ws.rev = append(ws.rev, at)
		if int(at) == si {
			break
		}
	}
	for i := len(ws.rev) - 1; i >= 0; i-- {
		buf = append(buf, g.sites[ws.rev[i]])
	}
	return buf
}

// WidestPath returns the path from src to dst maximizing the minimum edge
// throughput, breaking ties toward fewer hops. ok is false when dst is
// unreachable.
func (g *Graph) WidestPath(src, dst cloud.SiteID) (Path, bool) {
	si, ok1 := g.index[src]
	di, ok2 := g.index[dst]
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("route: unknown site %s or %s", src, dst))
	}
	if si == di {
		panic("route: src == dst")
	}
	if !g.widestInto(si, di) {
		return Path{}, false
	}
	sites := g.appendPathSites(nil, si, di)
	if sites[0] != src {
		return Path{}, false
	}
	return Path{Sites: sites, Bottleneck: g.ws.width[di]}, true
}

// AlternativePaths returns up to k paths from src to dst, each found on the
// graph with all previous paths' edges masked, in decreasing bottleneck
// order (by construction). The graph itself is left unmodified: masking is
// an epoch stamp per edge, not a clone of the weight matrix.
func (g *Graph) AlternativePaths(src, dst cloud.SiteID, k int) []Path {
	g.clearMasks()
	defer g.clearMasks()
	var out []Path
	for len(out) < k {
		p, ok := g.WidestPath(src, dst)
		if !ok || p.Bottleneck <= 0 {
			break
		}
		out = append(out, p)
		g.maskPathSites(p.Sites)
	}
	return out
}

// Lane is one worker chain along a path: a node in every site of the path,
// moving chunks hop by hop.
//
// PathAlloc records how many lanes the planner assigned to one path and the
// throughput it predicts for them.
type PathAlloc struct {
	Path          Path
	Lanes         int
	PredictedMBps float64
	// NodesUsed is the number of VMs this allocation engages
	// (lanes × sites on the path).
	NodesUsed int
}

// Allocation is a complete multipath transfer plan.
type Allocation struct {
	Paths []PathAlloc
	// TotalNodes is the sum of NodesUsed.
	TotalNodes int
	// PredictedMBps is the aggregate predicted throughput.
	PredictedMBps float64
}

// laneThroughput predicts the aggregate MB/s of k lanes on a path using the
// model's speedup law against the path bottleneck.
func laneThroughput(p model.Params, path Path, k int) float64 {
	if k <= 0 {
		return 0
	}
	return path.Bottleneck * p.Speedup(k)
}

// MaxLaneSites caps the length of a usable path at one intermediate
// datacenter (three sites). Longer chains pay store-and-forward latency and
// node cost on every extra hop that the widest-path metric never recovers
// in practice, and they starve the budget for parallel lanes.
const MaxLaneSites = 3

// allocateLanes runs the greedy marginal-throughput-per-node loop over the
// candidate paths, writing lane counts into lanes (len(paths) entries,
// zeroed by the caller).
func allocateLanes(paths []Path, lanes []int, nodeBudget int, par model.Params) {
	nodesLeft := nodeBudget
	for {
		bestIdx, bestMarg := -1, 0.0
		for i := range paths {
			cost := len(paths[i].Sites)
			if cost > nodesLeft {
				continue
			}
			marg := (laneThroughput(par, paths[i], lanes[i]+1) -
				laneThroughput(par, paths[i], lanes[i])) / float64(cost)
			if marg > bestMarg {
				bestIdx, bestMarg = i, marg
			}
		}
		if bestIdx < 0 || bestMarg <= 0 {
			break
		}
		lanes[bestIdx]++
		nodesLeft -= len(paths[bestIdx].Sites)
	}
}

// buildAllocation folds the lane assignment into an Allocation, appending
// PathAllocs to the (possibly recycled) buf.
func buildAllocation(paths []Path, lanes []int, par model.Params, buf []PathAlloc) Allocation {
	alloc := Allocation{Paths: buf}
	for i := range paths {
		if lanes[i] == 0 {
			continue
		}
		pa := PathAlloc{
			Path:          paths[i],
			Lanes:         lanes[i],
			PredictedMBps: laneThroughput(par, paths[i], lanes[i]),
			NodesUsed:     lanes[i] * len(paths[i].Sites),
		}
		alloc.Paths = append(alloc.Paths, pa)
		alloc.TotalNodes += pa.NodesUsed
		alloc.PredictedMBps += pa.PredictedMBps
	}
	return alloc
}

// filterLanePaths applies PlanMultipath's path admission rule: keep paths of
// at most MaxLaneSites sites, stop at maxPaths kept.
func filterLanePaths(raw []Path, maxPaths int, buf []Path) []Path {
	paths := buf
	for _, p := range raw {
		if len(p.Sites) <= MaxLaneSites {
			paths = append(paths, p)
		}
		if len(paths) == maxPaths {
			break
		}
	}
	return paths
}

// PlanMultipath allocates up to nodeBudget VMs across alternative paths from
// src to dst. Every step gives the next lane to whichever action yields the
// highest marginal throughput per node: widening an already-open path
// (subject to the diminishing parallel-speedup law) or opening the best
// still-unopened alternative. The loop ends when the node budget is
// exhausted or no addition is profitable — the elasticity-driven refinement
// of shortest-path transfer scheduling that needs only per-link estimates,
// not full topology knowledge.
//
// maxPaths bounds the alternatives considered.
func PlanMultipath(g *Graph, src, dst cloud.SiteID, nodeBudget int, par model.Params, maxPaths int) (Allocation, bool) {
	paths := filterLanePaths(g.AlternativePaths(src, dst, maxPaths+2), maxPaths, nil)
	if len(paths) == 0 {
		return Allocation{}, false
	}
	lanes := make([]int, len(paths))
	allocateLanes(paths, lanes, nodeBudget, par)
	alloc := buildAllocation(paths, lanes, par, nil)
	return alloc, len(alloc.Paths) > 0
}

// GraphFromEstimates builds a routing graph from a monitor-style estimate
// function over the given sites (estimate <= 0 omits the edge).
func GraphFromEstimates(sites []cloud.SiteID, est func(from, to cloud.SiteID) float64) *Graph {
	g := NewGraph(sites)
	for _, a := range sites {
		for _, b := range sites {
			if a == b {
				continue
			}
			if v := est(a, b); v > 0 {
				g.SetEdge(a, b, v)
			}
		}
	}
	return g
}
