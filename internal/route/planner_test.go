package route

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/rng"
)

// churnWorld is the property-test fixture: a generated topology whose link
// weights mutate between rounds, read by both the incremental planner and
// the from-scratch oracle through the same estimate function.
type churnWorld struct {
	sites []cloud.SiteID
	idx   map[cloud.SiteID]int
	n     int
	w     []float64 // current weights, flat n×n
	base  []float64 // original topology weights (for revival/resume)
	links [][2]int  // pairs with a base link
}

func newChurnWorld(sites int, seed uint64) *churnWorld {
	topo := cloud.GenerateWorld(sites, benchRegions(sites), seed)
	ids := topo.SiteIDs()
	cw := &churnWorld{sites: ids, idx: make(map[cloud.SiteID]int, len(ids)), n: len(ids)}
	for i, s := range ids {
		cw.idx[s] = i
	}
	cw.w = make([]float64, cw.n*cw.n)
	cw.base = make([]float64, cw.n*cw.n)
	for _, l := range topo.Links() {
		fi, ti := cw.idx[l.From], cw.idx[l.To]
		cw.w[fi*cw.n+ti] = l.BaseMBps
		cw.base[fi*cw.n+ti] = l.BaseMBps
		cw.links = append(cw.links, [2]int{fi, ti})
	}
	return cw
}

func (cw *churnWorld) est(from, to cloud.SiteID) float64 {
	return cw.w[cw.idx[from]*cw.n+cw.idx[to]]
}

// set mutates one weight and reports the pair for dirty marking.
func (cw *churnWorld) set(fi, ti int, v float64) (cloud.SiteID, cloud.SiteID) {
	cw.w[fi*cw.n+ti] = v
	return cw.sites[fi], cw.sites[ti]
}

func samePath(a, b Path) bool {
	if a.Bottleneck != b.Bottleneck || len(a.Sites) != len(b.Sites) {
		return false
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			return false
		}
	}
	return true
}

func sameAlloc(a, b Allocation) bool {
	if a.TotalNodes != b.TotalNodes || a.PredictedMBps != b.PredictedMBps || len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Paths {
		pa, pb := a.Paths[i], b.Paths[i]
		if pa.Lanes != pb.Lanes || pa.NodesUsed != pb.NodesUsed ||
			pa.PredictedMBps != pb.PredictedMBps || !samePath(pa.Path, pb.Path) {
			return false
		}
	}
	return true
}

// Churn opcodes of FuzzPlannerMatchesFromScratch's interpreter, one byte
// each (taken mod opCount), followed by their argument bytes.
const (
	opDrift  = iota // link, factor: the link's weight times 0.5 + factor/256
	opKill          // link: the link's weight drops to 0
	opRevive        // link: the link returns to its base weight
	opSpawn         // from, to, weight: an edge where the topology may have none
	opPause         // site: every link touching the site drops to 0
	opResume        // none: the paused site of lowest index returns at base weights
	opBlind         // none: mutations up to the next query skip MarkDirty, and the query calls MarkAllDirty first
	opQuery         // src, dst, budget: WidestPath and PlanMultipath against the oracle
	opCount
)

// plannerScript is a program for FuzzPlannerMatchesFromScratch drawn from r:
// rounds of one to six mutations in the proportions of the seeded script the
// fuzz target replaced, one round in twenty blind, each followed by three
// queries among the first eight sites, so that pairs repeat and their
// cached plans are hit, repaired and recomputed.
func plannerScript(r *rng.Rand, rounds int) []byte {
	arg := func() byte { return byte(r.Intn(256)) }
	var prog []byte
	for round := 0; round < rounds; round++ {
		if r.Intn(20) == 0 {
			prog = append(prog, opBlind)
		}
		for m := 1 + r.Intn(6); m > 0; m-- {
			switch k := r.Intn(100); {
			case k < 45:
				prog = append(prog, opDrift, arg(), arg())
			case k < 60:
				prog = append(prog, opKill, arg())
			case k < 75:
				prog = append(prog, opRevive, arg())
			case k < 85:
				prog = append(prog, opSpawn, arg(), arg(), arg())
			case k < 93:
				prog = append(prog, opPause, arg())
			default:
				prog = append(prog, opResume)
			}
		}
		for q := 0; q < 3; q++ {
			prog = append(prog, opQuery, byte(r.Intn(8)), byte(r.Intn(8)), arg())
		}
	}
	return prog
}

// FuzzPlannerMatchesFromScratch interprets a byte string as estimate churn
// on a generated world — weight drift, link death and revival, edges
// appearing where the topology has none, whole sites pausing and resuming,
// and blind stretches that skip MarkDirty for the MarkAllDirty escape hatch —
// and queries between them. Every query's WidestPath and PlanMultipath
// answers must be identical to a from-scratch GraphFromEstimates build over
// the same estimates: the byte-identity contract the planner's cache-survival
// rule must uphold. The seeded script among the seeds must exercise every op
// and every planner path (replan, cache hit, repair, full recompute).
func FuzzPlannerMatchesFromScratch(f *testing.F) {
	script := plannerScript(rng.New(42), 10)
	f.Add(script)
	f.Add([]byte{opQuery, 0, 1, 9, opKill, 0, opQuery, 0, 1, 9, opQuery, 0, 1, 9})
	f.Add([]byte{opPause, 4, opQuery, 4, 0, 20, opBlind, opResume, opSpawn, 4, 9, 128, opQuery, 4, 9, 3})
	f.Add([]byte{opBlind, opDrift, 7, 255, opDrift, 7, 0, opQuery, 2, 3, 30, opRevive, 7, opQuery, 2, 3, 30})
	world := newChurnWorld(24, 7)
	f.Fuzz(func(t *testing.T, prog []byte) {
		cw := *world
		cw.w = slices.Clone(world.w)
		p := NewPlanner(cw.sites, cw.est)
		par := model.Params{Gain: 0.5, MaxSpeedup: 3, Intr: 1, Class: cloud.XLarge, EgressPerGB: 0.12}

		i := 0
		next := func() int {
			if i >= len(prog) {
				return 0
			}
			i++
			return int(prog[i-1])
		}
		var oracle *Graph // built at the first query after a mutation
		blind := false
		set := func(fi, ti int, v float64) {
			from, to := cw.set(fi, ti, v)
			if !blind {
				p.MarkDirty(from, to)
			}
			oracle = nil
		}
		link := func() [2]int { return cw.links[next()%len(cw.links)] }
		paused := make([]bool, cw.n)
		counts := make([]int, opCount)
		// Bounds that keep any input to a few times the seeded script's work.
		const maxOps = 4000
		for ops := 0; i < len(prog) && ops < maxOps; ops++ {
			op := next() % opCount
			counts[op]++
			switch op {
			case opDrift:
				l, factor := link(), next()
				set(l[0], l[1], cw.w[l[0]*cw.n+l[1]]*(0.5+float64(factor)/256))
			case opKill:
				l := link()
				set(l[0], l[1], 0)
			case opRevive:
				l := link()
				set(l[0], l[1], cw.base[l[0]*cw.n+l[1]])
			case opSpawn:
				fi, ti, w := next()%cw.n, next()%cw.n, next()
				if fi != ti {
					set(fi, ti, 1+20*float64(w)/256)
				}
			case opPause:
				s := next() % cw.n
				paused[s] = true
				for o := 0; o < cw.n; o++ {
					if o != s {
						set(s, o, 0)
						set(o, s, 0)
					}
				}
			case opResume:
				for s := range paused {
					if !paused[s] {
						continue
					}
					paused[s] = false
					for o := 0; o < cw.n; o++ {
						if o != s {
							set(s, o, cw.base[s*cw.n+o])
							set(o, s, cw.base[o*cw.n+s])
						}
					}
					break
				}
			case opBlind:
				blind = true
			case opQuery:
				si, di, budget := next()%cw.n, next()%cw.n, 3+next()%30
				if blind {
					p.MarkAllDirty()
					blind = false
				}
				if si == di {
					continue
				}
				if oracle == nil {
					oracle = GraphFromEstimates(cw.sites, cw.est)
				}
				src, dst := cw.sites[si], cw.sites[di]
				wantP, wantOK := oracle.WidestPath(src, dst)
				gotP, gotOK := p.WidestPath(src, dst)
				if wantOK != gotOK || (wantOK && !samePath(wantP, gotP)) {
					t.Fatalf("op %d: WidestPath(%s,%s) = %v,%v; from-scratch %v,%v",
						ops, src, dst, gotP, gotOK, wantP, wantOK)
				}
				wantA, wantOK2 := PlanMultipath(oracle, src, dst, budget, par, 3)
				gotA, gotOK2 := p.PlanMultipath(src, dst, budget, par, 3)
				if wantOK2 != gotOK2 || (wantOK2 && !sameAlloc(wantA, gotA)) {
					t.Fatalf("op %d: PlanMultipath(%s,%s,%d) = %+v,%v; from-scratch %+v,%v",
						ops, src, dst, budget, gotA, gotOK2, wantA, wantOK2)
				}
			}
		}
		if !bytes.Equal(prog, script) {
			return
		}
		for op, n := range counts {
			if n == 0 {
				t.Errorf("the seeded script never ran op %d", op)
			}
		}
		if s := p.Stats(); s.Replans == 0 || s.CacheHits == 0 || s.Repairs == 0 || s.FullRecomputes == 0 {
			t.Errorf("the seeded script did not exercise every planner path: %+v", s)
		}
	})
}

// TestPlannerConcurrentMarkDirty hammers MarkDirty/MarkAllDirty from several
// goroutines while queries run — the shape of monitor callbacks racing the
// transfer manager's replan ticks. Run under -race; correctness of results
// is covered by FuzzPlannerMatchesFromScratch.
func TestPlannerConcurrentMarkDirty(t *testing.T) {
	cw := newChurnWorld(50, 3)
	var mu sync.Mutex
	p := NewPlanner(cw.sites, func(from, to cloud.SiteID) float64 {
		mu.Lock()
		defer mu.Unlock()
		return cw.est(from, to)
	})
	src, dst := cw.sites[benchRegions(50)], cw.sites[cw.n-1]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			for i := 0; i < 2000; i++ {
				l := cw.links[r.Intn(len(cw.links))]
				mu.Lock()
				cw.w[l[0]*cw.n+l[1]] = cw.base[l[0]*cw.n+l[1]] * (0.5 + r.Float64())
				mu.Unlock()
				p.MarkDirty(cw.sites[l[0]], cw.sites[l[1]])
				if i%500 == 0 {
					p.MarkAllDirty()
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		p.WidestPath(src, dst)
		p.Graph()
	}
	wg.Wait()
	if _, ok := p.WidestPath(src, dst); !ok {
		t.Fatal("route lost under concurrent churn")
	}
}

// TestReplanZeroAllocs pins the tentpole budget: at steady state a replan —
// dirty-edge commit plus query — allocates nothing, on the cache-hit path,
// the repair path, and the multipath variant.
func TestReplanZeroAllocs(t *testing.T) {
	cw := newChurnWorld(200, 1)
	p := NewPlanner(cw.sites, cw.est)
	// Hub -> far spoke: two hops, so the pair is inside multipath's
	// MaxLaneSites admission rule.
	src, dst := cw.sites[0], cw.sites[cw.n-1]
	par := model.Params{Gain: 0.5, MaxSpeedup: 3, Intr: 1, Class: cloud.XLarge, EgressPerGB: 0.12}
	path, ok := p.WidestPath(src, dst)
	if !ok {
		t.Fatalf("no path %s -> %s", src, dst)
	}
	if _, ok := p.PlanMultipath(src, dst, 12, par, 3); !ok {
		t.Fatalf("no multipath %s -> %s", src, dst)
	}

	// Off-path link toggled strictly below the bottleneck: cache hit.
	onPath := map[int]bool{}
	for _, s := range path.Sites {
		onPath[cw.idx[s]] = true
	}
	var off [2]int
	for _, l := range cw.links {
		if !onPath[l[0]] && !onPath[l[1]] {
			off = l
			break
		}
	}
	lo, hi := path.Bottleneck*0.25, path.Bottleneck*0.30
	i := 0
	hit := func() {
		v := lo
		if i&1 == 1 {
			v = hi
		}
		i++
		cw.w[off[0]*cw.n+off[1]] = v
		p.MarkDirty(cw.sites[off[0]], cw.sites[off[1]])
		p.WidestPath(src, dst)
		p.PlanMultipath(src, dst, 12, par, 3)
	}
	hit() // absorb the one-time invalidation of the first weight change
	if n := testing.AllocsPerRun(100, hit); n != 0 {
		t.Errorf("cache-hit replan allocates %.1f/op; budget is 0", n)
	}

	// The bottleneck edge itself perturbed: repair path.
	var bfi, bti int
	for j := 0; j+1 < len(path.Sites); j++ {
		fi, ti := cw.idx[path.Sites[j]], cw.idx[path.Sites[j+1]]
		if cw.w[fi*cw.n+ti] == path.Bottleneck {
			bfi, bti = fi, ti
			break
		}
	}
	base := cw.w[bfi*cw.n+bti]
	repair := func() {
		f := 1.01
		if i&1 == 1 {
			f = 0.99
		}
		i++
		cw.w[bfi*cw.n+bti] = base * f
		p.MarkDirty(cw.sites[bfi], cw.sites[bti])
		p.WidestPath(src, dst)
		p.PlanMultipath(src, dst, 12, par, 3)
	}
	repair()
	if n := testing.AllocsPerRun(100, repair); n != 0 {
		t.Errorf("repair replan allocates %.1f/op; budget is 0", n)
	}
}

// TestPlannerStatsTaxonomy checks the hit/repair/full accounting on a small
// deterministic graph: first query is a full recompute, an untouched repeat
// is a cache hit, and a bottleneck change forces a repair.
func TestPlannerStatsTaxonomy(t *testing.T) {
	w := map[[2]cloud.SiteID]float64{
		{"A", "B"}: 10, {"B", "C"}: 8, {"A", "C"}: 2,
	}
	p := NewPlanner([]cloud.SiteID{"A", "B", "C"}, func(from, to cloud.SiteID) float64 {
		return w[[2]cloud.SiteID{from, to}]
	})
	path, ok := p.WidestPath("A", "C")
	if !ok || path.Bottleneck != 8 {
		t.Fatalf("want A>B>C at 8, got %v %v", path, ok)
	}
	if s := p.Stats(); s.Replans != 1 || s.FullRecomputes != 1 {
		t.Fatalf("first query: %+v", s)
	}
	if _, ok := p.WidestPath("A", "C"); !ok {
		t.Fatal("route lost")
	}
	if s := p.Stats(); s.CacheHits != 1 {
		t.Fatalf("repeat query should hit: %+v", s)
	}
	// A change below the bottleneck survives; the low direct edge moves
	// 2 -> 3, both under 8.
	w[[2]cloud.SiteID{"A", "C"}] = 3
	p.MarkDirty("A", "C")
	if _, ok := p.WidestPath("A", "C"); !ok {
		t.Fatal("route lost")
	}
	if s := p.Stats(); s.CacheHits != 2 {
		t.Fatalf("sub-bottleneck change should still hit: %+v", s)
	}
	// Touching the bottleneck edge invalidates: 8 -> 12 re-widens the path.
	w[[2]cloud.SiteID{"B", "C"}] = 12
	p.MarkDirty("B", "C")
	path, ok = p.WidestPath("A", "C")
	if !ok || path.Bottleneck != 10 {
		t.Fatalf("want A>B>C at 10 after widening, got %v %v", path, ok)
	}
	if s := p.Stats(); s.Repairs != 1 {
		t.Fatalf("bottleneck change should repair: %+v", s)
	}
	// DirtyEdges counts commits, ChangedEdges the subset that moved.
	if s := p.Stats(); s.DirtyEdges < 2 || s.ChangedEdges < 2 {
		t.Fatalf("dirty accounting: %+v", s)
	}
}

// TestPlannerNoRouteCached pins the "no route" caching rule: a disconnected
// answer is cached, survives unrelated weight changes, and is invalidated by
// an edge revival.
func TestPlannerNoRouteCached(t *testing.T) {
	sites := []cloud.SiteID{"A", "B", "C"}
	w := map[[2]cloud.SiteID]float64{{"A", "B"}: 10}
	p := NewPlanner(sites, func(from, to cloud.SiteID) float64 { return w[[2]cloud.SiteID{from, to}] })

	if _, ok := p.WidestPath("A", "C"); ok {
		t.Fatal("unexpected route A->C")
	}
	if s := p.Stats(); s.FullRecomputes != 1 {
		t.Fatalf("first query should be a full recompute: %+v", s)
	}
	// Unrelated weight drift: the cached "no route" must survive as a hit.
	w[[2]cloud.SiteID{"A", "B"}] = 12
	p.MarkDirty("A", "C") // noise: unchanged pair
	p.MarkDirty("A", "B")
	if _, ok := p.WidestPath("A", "C"); ok {
		t.Fatal("unexpected route A->C")
	}
	if s := p.Stats(); s.CacheHits != 1 {
		t.Fatalf("no-route answer should have been a cache hit: %+v", s)
	}
	// Revival connects B->C: the cached "no route" must be repaired.
	w[[2]cloud.SiteID{"B", "C"}] = 5
	p.MarkDirty("B", "C")
	path, ok := p.WidestPath("A", "C")
	if !ok || path.Bottleneck != 5 || len(path.Sites) != 3 {
		t.Fatalf("expected A>B>C at 5 after revival, got %v %v", path, ok)
	}
	if s := p.Stats(); s.Repairs != 1 {
		t.Fatalf("revival should repair the cached no-route: %+v", s)
	}
}

// TestPlannerCacheEviction fills the plan cache past its capacity and checks
// the FIFO eviction costs only a recompute, never a wrong answer.
func TestPlannerCacheEviction(t *testing.T) {
	cw := newChurnWorld(40, 5)
	p := NewPlanner(cw.sites, cw.est)
	// Query maxCachedPlans+1 distinct pairs; the first key gets evicted.
	pairs := 0
	var first [2]cloud.SiteID
	for fi := 0; fi < cw.n && pairs <= maxCachedPlans; fi++ {
		for ti := 0; ti < cw.n && pairs <= maxCachedPlans; ti++ {
			if fi == ti {
				continue
			}
			if pairs == 0 {
				first = [2]cloud.SiteID{cw.sites[fi], cw.sites[ti]}
			}
			p.WidestPath(cw.sites[fi], cw.sites[ti])
			pairs++
		}
	}
	before := p.Stats()
	oracle := GraphFromEstimates(cw.sites, cw.est)
	wantP, wantOK := oracle.WidestPath(first[0], first[1])
	gotP, gotOK := p.WidestPath(first[0], first[1])
	if wantOK != gotOK || (wantOK && !samePath(wantP, gotP)) {
		t.Fatalf("evicted pair answered wrongly: %v,%v want %v,%v", gotP, gotOK, wantP, wantOK)
	}
	after := p.Stats()
	if after.FullRecomputes != before.FullRecomputes+1 {
		t.Fatalf("re-querying the evicted pair should be a full recompute: %+v -> %+v", before, after)
	}
}

// TestPlannerMarkDirtyUnknownSite checks marks for sites outside the
// planner's world are ignored rather than panicking.
func TestPlannerMarkDirtyUnknownSite(t *testing.T) {
	p := NewPlanner([]cloud.SiteID{"A", "B"}, func(_, _ cloud.SiteID) float64 { return 1 })
	p.MarkDirty("A", "NOPE")
	p.MarkDirty("NOPE", "B")
	p.MarkDirty("A", "A")
	if path, ok := p.WidestPath("A", "B"); !ok || path.Bottleneck != 1 {
		t.Fatalf("got %v %v", path, ok)
	}
}
