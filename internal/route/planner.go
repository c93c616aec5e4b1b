package route

import (
	"fmt"
	"math"
	"sync"

	"sage/internal/cloud"
	"sage/internal/model"
)

// Planner is a persistent, incremental route planner. Instead of rebuilding
// an n² estimate matrix and re-running Dijkstra from scratch on every
// replan, it keeps one long-lived Graph updated in place from estimate
// deltas and a cache of previously computed plans, and answers a replan in
// one of three ways, cheapest first:
//
//   - cache hit: no refreshed edge can touch the cached plan, so it is
//     provably still the plan a from-scratch run would produce — O(dirty)
//     work, zero allocations;
//   - repair: a refreshed edge invalidated the cached plan, so the path
//     search re-runs on the persistent graph with reused scratch — no graph
//     rebuild, zero allocations at steady state;
//   - full recompute: no cached plan exists for the query yet.
//
// The invalidation test is conservative and exact (see DESIGN.md): a cached
// plan with minimum bottleneck B survives an edge change old→new iff
// max(old, new) < B, the change does not revive an edge (0 → positive) while
// the cached alternative list was cut short by graph exhaustion, and — for a
// cached "no route" — the change is not a revival. Under those conditions no
// path through the changed edge can reach width B, so the deterministic
// widest-path search is byte-identical to a from-scratch run.
//
// Edge weights are pulled, not pushed: MarkDirty records that a directed
// pair may have changed (cheap, safe from any goroutine), and the next plan
// query re-reads only the dirty pairs through the estimate function the
// Planner was built with. Queries therefore observe exactly the weights a
// GraphFromEstimates call at the same instant would.
//
// All exported methods are safe for concurrent use. The Graph returned by
// Graph is a live view: it is valid only until the next Planner call and
// must not be mutated or used concurrently with one.
type Planner struct {
	mu  sync.Mutex
	g   *Graph
	est func(from, to cloud.SiteID) float64
	n   int

	// dirty is the committed-on-next-query list of directed edge indices;
	// dirtyEpoch/epoch deduplicate marks between commits without clearing
	// the n² stamp array.
	dirty      []int32
	dirtyEpoch []uint32
	epoch      uint32
	allDirty   bool

	caches map[planKey]*planCache
	order  []planKey // FIFO insertion order for deterministic eviction

	// scratch for multipath queries, reused across calls.
	lanesBuf []int
	pathsBuf []Path

	stats PlannerStats
}

// maxCachedPlans bounds the plan cache; the oldest entry is evicted first.
// Eviction only costs a recompute, never changes a result.
const maxCachedPlans = 256

// PlannerStats are cumulative counters of planner behaviour, readable at
// any time; the transfer layer diffs them into one event per planner call.
type PlannerStats struct {
	// Replans counts plan queries (WidestPath + PlanMultipath calls).
	Replans uint64
	// CacheHits counts queries answered from an untouched cached plan.
	CacheHits uint64
	// Repairs counts queries whose cached plan was invalidated by a dirty
	// edge and recomputed on the persistent graph.
	Repairs uint64
	// FullRecomputes counts queries with no cached plan (first sight of the
	// pair, eviction, or a full graph refresh).
	FullRecomputes uint64
	// DirtyEdges counts edge refreshes committed; ChangedEdges counts the
	// subset whose weight actually changed.
	DirtyEdges   uint64
	ChangedEdges uint64
}

type planKind uint8

const (
	kindWidest planKind = iota
	kindMultipath
)

// planKey identifies one cached plan. Multipath plans depend on the budget
// and model parameters, so those are part of the identity.
type planKey struct {
	src, dst int32
	kind     planKind
	budget   int32
	maxPaths int32
	par      model.Params
}

// planCache is one cached plan plus the facts its survival test needs.
type planCache struct {
	stale bool
	// hasPaths is false for a cached "no route"; complete is false when the
	// alternative search exhausted the graph before filling its quota (a
	// revived edge could then add a path); minB is the smallest bottleneck
	// among the cached raw paths.
	hasPaths bool
	complete bool
	minB     float64

	// widest-path result (kindWidest).
	path     Path
	sitesBuf []cloud.SiteID

	// multipath state (kindMultipath): the raw alternative list before
	// length filtering, its requested quota, and the finished allocation.
	raw      []Path
	rawBufs  [][]cloud.SiteID
	rawReq   int
	alloc    Allocation
	allocOK  bool
	allocBuf []PathAlloc
}

// survives reports whether this cached plan is provably unaffected by one
// committed edge change oldW → newW.
func (c *planCache) survives(oldW, newW float64) bool {
	if !c.hasPaths {
		// Cached "no route": weight changes on existing edges cannot create
		// connectivity; only a revival can.
		return !(oldW <= 0 && newW > 0)
	}
	if math.Max(oldW, newW) >= c.minB {
		return false
	}
	if !c.complete && oldW <= 0 && newW > 0 {
		return false
	}
	return true
}

// NewPlanner builds a Planner over the given sites, reading edge weights
// through est (the same contract as GraphFromEstimates: <= 0 omits the
// edge). The initial graph is fully dirty, so the first query performs the
// one n² build a from-scratch planner would do per replan.
func NewPlanner(sites []cloud.SiteID, est func(from, to cloud.SiteID) float64) *Planner {
	g := NewGraph(sites)
	n := len(g.sites)
	return &Planner{
		g:          g,
		est:        est,
		n:          n,
		dirty:      make([]int32, 0, n),
		dirtyEpoch: make([]uint32, n*n),
		epoch:      1,
		allDirty:   true,
		caches:     make(map[planKey]*planCache),
	}
}

// MarkDirty records that the directed pair from → to may have a new
// estimate. Unknown sites are ignored (the monitor may track links the
// planner's world does not), duplicate marks between queries are free.
func (p *Planner) MarkDirty(from, to cloud.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fi, ok1 := p.g.index[from]
	ti, ok2 := p.g.index[to]
	if !ok1 || !ok2 || fi == ti {
		return
	}
	e := int32(fi*p.n + ti)
	if p.dirtyEpoch[e] == p.epoch {
		return
	}
	p.dirtyEpoch[e] = p.epoch
	p.dirty = append(p.dirty, e)
}

// MarkAllDirty schedules a full weight refresh on the next query — the
// escape hatch when the caller cannot enumerate what changed.
func (p *Planner) MarkAllDirty() {
	p.mu.Lock()
	p.allDirty = true
	p.mu.Unlock()
}

// Stats returns a snapshot of the cumulative planner counters.
func (p *Planner) Stats() PlannerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// commitLocked re-reads every dirty edge through the estimate function,
// applies real changes to the graph, and marks the cached plans a change
// could touch as stale. Called at the head of every query.
func (p *Planner) commitLocked() {
	if p.allDirty {
		p.allDirty = false
		p.dirty = p.dirty[:0]
		p.epoch++
		for fi := 0; fi < p.n; fi++ {
			for ti := 0; ti < p.n; ti++ {
				if fi == ti {
					continue
				}
				w := p.est(p.g.sites[fi], p.g.sites[ti])
				if w < 0 {
					w = 0
				}
				if w != p.g.thr[fi*p.n+ti] {
					p.stats.ChangedEdges++
					p.g.setEdgeIdx(fi, ti, w)
				}
			}
		}
		p.stats.DirtyEdges += uint64(p.n) * uint64(p.n-1)
		for _, key := range p.order {
			p.caches[key].stale = true
		}
		return
	}
	if len(p.dirty) == 0 {
		return
	}
	p.stats.DirtyEdges += uint64(len(p.dirty))
	for _, e := range p.dirty {
		fi, ti := int(e)/p.n, int(e)%p.n
		w := p.est(p.g.sites[fi], p.g.sites[ti])
		if w < 0 {
			w = 0
		}
		old := p.g.thr[e]
		if w == old {
			continue
		}
		p.stats.ChangedEdges++
		p.g.setEdgeIdx(fi, ti, w)
		for _, key := range p.order {
			c := p.caches[key]
			if !c.stale && !c.survives(old, w) {
				c.stale = true
			}
		}
	}
	p.dirty = p.dirty[:0]
	p.epoch++
}

// cacheFor returns the cache entry for key, reporting whether it existed.
// New entries are inserted FIFO with bounded capacity.
func (p *Planner) cacheFor(key planKey) (*planCache, bool) {
	if c, ok := p.caches[key]; ok {
		return c, true
	}
	if len(p.order) >= maxCachedPlans {
		oldest := p.order[0]
		p.order = p.order[1:]
		delete(p.caches, oldest)
	}
	c := &planCache{}
	p.caches[key] = c
	p.order = append(p.order, key)
	return c, false
}

// lookupPair resolves a query pair with the same panics as Graph.WidestPath.
func (p *Planner) lookupPair(src, dst cloud.SiteID) (int, int) {
	si, ok1 := p.g.index[src]
	di, ok2 := p.g.index[dst]
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("route: unknown site %s or %s", src, dst))
	}
	if si == di {
		panic("route: src == dst")
	}
	return si, di
}

// WidestPath returns the current widest path from src to dst, byte-identical
// to GraphFromEstimates(...).WidestPath(src, dst) over the same estimates.
// The returned Path's Sites slice is owned by the planner and valid until
// the next query for the same pair.
func (p *Planner) WidestPath(src, dst cloud.SiteID) (Path, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	si, di := p.lookupPair(src, dst)
	p.commitLocked()
	p.stats.Replans++
	key := planKey{src: int32(si), dst: int32(di), kind: kindWidest}
	c, existed := p.cacheFor(key)
	if existed && !c.stale {
		p.stats.CacheHits++
		return c.path, c.hasPaths
	}
	if existed {
		p.stats.Repairs++
	} else {
		p.stats.FullRecomputes++
	}
	c.stale = false
	c.complete = true
	if !p.g.widestInto(si, di) {
		c.hasPaths = false
		c.minB = 0
		c.path = Path{}
		return Path{}, false
	}
	c.sitesBuf = p.g.appendPathSites(c.sitesBuf[:0], si, di)
	c.path = Path{Sites: c.sitesBuf, Bottleneck: p.g.ws.width[di]}
	c.hasPaths = true
	c.minB = c.path.Bottleneck
	return c.path, true
}

// PlanMultipath returns the current multipath allocation from src to dst,
// byte-identical to PlanMultipath(GraphFromEstimates(...), ...) over the
// same estimates. The returned Allocation's slices are owned by the planner
// and valid until the next query for the same key.
func (p *Planner) PlanMultipath(src, dst cloud.SiteID, nodeBudget int, par model.Params, maxPaths int) (Allocation, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	si, di := p.lookupPair(src, dst)
	p.commitLocked()
	p.stats.Replans++
	key := planKey{src: int32(si), dst: int32(di), kind: kindMultipath,
		budget: int32(nodeBudget), maxPaths: int32(maxPaths), par: par}
	c, existed := p.cacheFor(key)
	if existed && !c.stale {
		p.stats.CacheHits++
		return c.alloc, c.allocOK
	}
	if existed {
		p.stats.Repairs++
	} else {
		p.stats.FullRecomputes++
	}
	c.stale = false
	c.rawReq = maxPaths + 2
	p.alternativesInto(c, si, di, c.rawReq)
	c.hasPaths = len(c.raw) > 0
	c.complete = len(c.raw) == c.rawReq
	if c.hasPaths {
		c.minB = c.raw[len(c.raw)-1].Bottleneck
	} else {
		c.minB = 0
	}
	paths := filterLanePaths(c.raw, maxPaths, p.pathsBuf[:0])
	p.pathsBuf = paths[:0]
	if len(paths) == 0 {
		c.alloc = Allocation{}
		c.allocOK = false
		return Allocation{}, false
	}
	lanes := p.lanesBuf[:0]
	for range paths {
		lanes = append(lanes, 0)
	}
	p.lanesBuf = lanes[:0]
	allocateLanes(paths, lanes, nodeBudget, par)
	if c.allocBuf == nil {
		c.allocBuf = make([]PathAlloc, 0, maxPaths)
	}
	c.alloc = buildAllocation(paths, lanes, par, c.allocBuf[:0])
	c.allocBuf = c.alloc.Paths[:0]
	c.allocOK = len(c.alloc.Paths) > 0
	return c.alloc, c.allocOK
}

// alternativesInto recomputes the raw alternative-path list for a multipath
// cache entry, reusing its site buffers. Mirrors Graph.AlternativePaths.
func (p *Planner) alternativesInto(c *planCache, si, di, k int) {
	g := p.g
	g.clearMasks()
	c.raw = c.raw[:0]
	for len(c.raw) < k {
		if !g.widestInto(si, di) {
			break
		}
		idx := len(c.raw)
		if idx == len(c.rawBufs) {
			c.rawBufs = append(c.rawBufs, nil)
		}
		buf := g.appendPathSites(c.rawBufs[idx][:0], si, di)
		c.rawBufs[idx] = buf
		b := g.ws.width[di]
		if b <= 0 {
			break
		}
		c.raw = append(c.raw, Path{Sites: buf, Bottleneck: b})
		g.maskPathSites(buf)
	}
	g.clearMasks()
}

// Graph commits pending dirty edges and returns the live routing graph —
// the incremental replacement for a from-scratch GraphFromEstimates build.
// The view is read-only and valid until the next Planner call.
func (p *Planner) Graph() *Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commitLocked()
	return p.g
}
