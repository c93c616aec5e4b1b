package route

import (
	"testing"

	"sage/internal/cloud"
)

// This file holds the route benchmark bodies as exported Run* functions so
// both `go test -bench` wrappers (bench_test.go) and the bench package's
// baseline writer (bench.RunPerf → the route/ rows of BENCH.json) drive the
// exact same code.

// benchWorld is the benchmark fixture: a generated multi-region topology
// flattened into an index-addressed weight matrix. est reads it the way the
// transfer manager's estimate function reads the monitor — through a site-ID
// lookup — so the measured cost includes realistic estimate access.
type benchWorld struct {
	siteIDs []cloud.SiteID
	idx     map[cloud.SiteID]int
	w       []float64
	links   [][2]int
	n       int
}

// benchRegions picks the region count the scale experiments use for a world
// of the given size (≈1 hub per 50 sites, at least 4).
func benchRegions(sites int) int {
	r := sites / 50
	if r < 4 {
		r = 4
	}
	return r
}

func newBenchWorld(sites int, seed uint64) *benchWorld {
	topo := cloud.GenerateWorld(sites, benchRegions(sites), seed)
	ids := topo.SiteIDs()
	bw := &benchWorld{
		siteIDs: ids,
		idx:     make(map[cloud.SiteID]int, len(ids)),
		n:       len(ids),
	}
	for i, s := range ids {
		bw.idx[s] = i
	}
	bw.w = make([]float64, bw.n*bw.n)
	for _, l := range topo.Links() {
		fi, ti := bw.idx[l.From], bw.idx[l.To]
		bw.w[fi*bw.n+ti] = l.BaseMBps
		bw.links = append(bw.links, [2]int{fi, ti})
	}
	return bw
}

func (bw *benchWorld) est(from, to cloud.SiteID) float64 {
	return bw.w[bw.idx[from]*bw.n+bw.idx[to]]
}

// benchPair is the cross-region query pair: the first spoke of region 0 to
// the last generated site (a spoke of the last region), a multi-hop path in
// every hub-and-spoke world.
func (bw *benchWorld) benchPair(sites int) (src, dst cloud.SiteID) {
	return cloud.GeneratedSiteID(benchRegions(sites)), cloud.GeneratedSiteID(sites - 1)
}

// RunBenchmarkWidestPath measures one widest-path query on a prebuilt graph
// of the given world size.
func RunBenchmarkWidestPath(b *testing.B, sites int) {
	bw := newBenchWorld(sites, 1)
	g := GraphFromEstimates(bw.siteIDs, bw.est)
	src, dst := bw.benchPair(sites)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.WidestPath(src, dst); !ok {
			b.Fatalf("no path %s -> %s", src, dst)
		}
	}
}

// RunBenchmarkFromScratchReplan measures what a replan cost before the
// incremental planner: rebuild the n² estimate graph, then run widest-path.
func RunBenchmarkFromScratchReplan(b *testing.B, sites int) {
	bw := newBenchWorld(sites, 1)
	src, dst := bw.benchPair(sites)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := GraphFromEstimates(bw.siteIDs, bw.est)
		if _, ok := g.WidestPath(src, dst); !ok {
			b.Fatalf("no path %s -> %s", src, dst)
		}
	}
}

// RunBenchmarkReplanChurn measures the incremental planner's steady state: per
// iteration, `dirty` link estimates change (to values that stay below the
// cached plan's bottleneck, the common case for background churn), are marked
// dirty, and the route is re-requested. After warm-up every iteration is a
// commit of `dirty` edges plus a provable cache hit, and must not allocate.
func RunBenchmarkReplanChurn(b *testing.B, sites, dirty int) {
	bw := newBenchWorld(sites, 1)
	p := NewPlanner(bw.siteIDs, bw.est)
	src, dst := bw.benchPair(sites)
	path, ok := p.WidestPath(src, dst)
	if !ok {
		b.Fatalf("no path %s -> %s", src, dst)
	}
	// Churn links whose endpoints are off the cached path, toggled between
	// two positive values strictly below the bottleneck: such changes can
	// never affect the plan, and the planner must prove that in O(dirty).
	onPath := make(map[int]bool, len(path.Sites))
	for _, s := range path.Sites {
		onPath[bw.idx[s]] = true
	}
	var churn [][2]int
	for _, l := range bw.links {
		if onPath[l[0]] || onPath[l[1]] {
			continue
		}
		if churn = append(churn, l); len(churn) == dirty {
			break
		}
	}
	if len(churn) < dirty {
		b.Fatalf("world too small: %d churnable links, need %d", len(churn), dirty)
	}
	lo, hi := path.Bottleneck*0.25, path.Bottleneck*0.30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := lo
		if i&1 == 1 {
			v = hi
		}
		for _, l := range churn {
			bw.w[l[0]*bw.n+l[1]] = v
			p.MarkDirty(bw.siteIDs[l[0]], bw.siteIDs[l[1]])
		}
		if _, ok := p.WidestPath(src, dst); !ok {
			b.Fatalf("no path %s -> %s", src, dst)
		}
	}
}

// RunBenchmarkReplanRepair measures the planner's expensive path: every
// iteration perturbs the cached path's bottleneck edge itself, forcing a
// repair (re-run of widest-path on the persistent graph) rather than a cache
// hit. Still allocation-free at steady state — the repair reuses the graph,
// scratch and cache buffers.
func RunBenchmarkReplanRepair(b *testing.B, sites int) {
	bw := newBenchWorld(sites, 1)
	p := NewPlanner(bw.siteIDs, bw.est)
	src, dst := bw.benchPair(sites)
	path, ok := p.WidestPath(src, dst)
	if !ok {
		b.Fatalf("no path %s -> %s", src, dst)
	}
	// Find the bottleneck edge of the cached path.
	var bfi, bti int
	found := false
	for i := 0; i+1 < len(path.Sites); i++ {
		fi, ti := bw.idx[path.Sites[i]], bw.idx[path.Sites[i+1]]
		if bw.w[fi*bw.n+ti] == path.Bottleneck {
			bfi, bti, found = fi, ti, true
			break
		}
	}
	if !found {
		b.Fatal("bottleneck edge not found on path")
	}
	base := bw.w[bfi*bw.n+bti]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 1.01
		if i&1 == 1 {
			f = 0.99
		}
		bw.w[bfi*bw.n+bti] = base * f
		p.MarkDirty(bw.siteIDs[bfi], bw.siteIDs[bti])
		if _, ok := p.WidestPath(src, dst); !ok {
			b.Fatalf("no path %s -> %s", src, dst)
		}
	}
}
