package transfer

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
)

// DisseminateRequest replicates one dataset from a source site to several
// destination sites. Tree mode sends the data once per tree edge — shared
// WAN segments are crossed once, and every site forwards to its children at
// chunk granularity — while Unicast mode runs an independent transfer per
// destination (the baseline).
type DisseminateRequest struct {
	From  cloud.SiteID
	Dests []cloud.SiteID
	Size  int64
	// Tree selects tree dissemination; false unicasts per destination.
	Tree bool
	// LanesPerEdge is the parallel lane count on each tree edge or unicast
	// transfer (default 2).
	LanesPerEdge int
	// Intr is the intrusiveness cap (default 0.10).
	Intr float64
}

// DestReport is one destination's delivery outcome.
type DestReport struct {
	Dest     cloud.SiteID
	Duration time.Duration
}

// DisseminateResult reports a completed dissemination.
type DisseminateResult struct {
	Bytes int64
	// Dests lists per-destination completion times, sorted by site.
	Dests []DestReport
	// Makespan is the time until the last destination held the full copy.
	Makespan time.Duration
	// WANBytes counts bytes that crossed inter-site links.
	WANBytes int64
	// SrcEgressBytes counts bytes that left the source site — the quantity
	// tree dissemination saves over unicast: the tree crosses the shared
	// (often transoceanic) first segment once instead of once per
	// destination.
	SrcEgressBytes int64
	// Cost is VM time plus egress for every WAN crossing.
	Cost float64
	// TreeUsed records the planned tree ("" for unicast).
	TreeUsed string
}

// Disseminate starts a replication of req.Size bytes to every destination.
// onDone fires when the last destination has the complete copy.
func (m *Manager) Disseminate(req DisseminateRequest, onDone func(DisseminateResult)) error {
	if req.Size <= 0 {
		return errors.New("transfer: dissemination size must be positive")
	}
	if len(req.Dests) == 0 {
		return errors.New("transfer: dissemination needs at least one destination")
	}
	if m.net.Topology().Site(req.From) == nil {
		return fmt.Errorf("transfer: unknown source %q", req.From)
	}
	seen := map[cloud.SiteID]bool{}
	for _, d := range req.Dests {
		if m.net.Topology().Site(d) == nil {
			return fmt.Errorf("transfer: unknown destination %q", d)
		}
		if d == req.From {
			return errors.New("transfer: destination equals source")
		}
		if seen[d] {
			return fmt.Errorf("transfer: duplicate destination %q", d)
		}
		seen[d] = true
	}
	if req.LanesPerEdge <= 0 {
		req.LanesPerEdge = 2
	}
	if req.Intr <= 0 {
		req.Intr = defaultIntr
	}
	if !req.Tree {
		return m.disseminateUnicast(req, onDone)
	}
	return m.disseminateTree(req, onDone)
}

// disseminateUnicast runs an independent EnvAware transfer per destination.
func (m *Manager) disseminateUnicast(req DisseminateRequest, onDone func(DisseminateResult)) error {
	res := DisseminateResult{Bytes: req.Size}
	start := m.sched.Now()
	remaining := len(req.Dests)
	for _, d := range req.Dests {
		d := d
		_, err := m.Transfer(Request{
			From: req.From, To: d, Size: req.Size,
			Strategy: EnvAware, Lanes: req.LanesPerEdge,
			Intr: req.Intr,
		}, func(r Result) {
			remaining--
			res.Dests = append(res.Dests, DestReport{Dest: d, Duration: r.Duration})
			res.WANBytes += r.Bytes // every copy crosses the WAN separately
			res.SrcEgressBytes += r.Bytes
			res.Cost += r.Cost
			if dur := m.sched.Now() - start; dur > res.Makespan {
				res.Makespan = dur
			}
			if remaining == 0 {
				sort.Slice(res.Dests, func(i, j int) bool { return res.Dests[i].Dest < res.Dests[j].Dest })
				if onDone != nil {
					onDone(res)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// treeEdge is one parent->child stage of a tree dissemination: a set of
// worker lanes moving chunks between two sites.
type treeEdge struct {
	from, to cloud.SiteID
	workers  []*edgeWorker
	queue    []*chunk
}

type edgeWorker struct {
	src, dst *netsim.Node
	busy     bool
}

// disseminateTree plans the widest tree from current estimates and streams
// chunks down it: each site forwards a chunk to its children the moment it
// arrives, so the pipeline depth is the tree height.
func (m *Manager) disseminateTree(req DisseminateRequest, onDone func(DisseminateResult)) error {
	tree, ok := m.RouteGraph().WidestTree(req.From, req.Dests)
	if !ok {
		return fmt.Errorf("transfer: no dissemination tree %s -> %v", req.From, req.Dests)
	}
	slab := splitChunks(m.nextID, req.Size, m.opt.ChunkBytes, nil)
	m.nextID++
	chunks := make([]*chunk, len(slab))
	for i := range slab {
		chunks[i] = &slab[i]
	}

	// Build edges and their workers.
	edges := make(map[[2]cloud.SiteID]*treeEdge)
	children := make(map[cloud.SiteID][]cloud.SiteID)
	for _, e := range tree.Edges() {
		te := &treeEdge{from: e[0], to: e[1]}
		for i := 0; i < req.LanesPerEdge; i++ {
			src, err := m.take(e[0])
			if err != nil {
				return err
			}
			dst, err := m.take(e[1])
			if err != nil {
				return err
			}
			te.workers = append(te.workers, &edgeWorker{src: src, dst: dst})
		}
		edges[e] = te
		children[e[0]] = append(children[e[0]], e[1])
	}

	isDest := make(map[cloud.SiteID]bool, len(req.Dests))
	for _, d := range req.Dests {
		isDest[d] = true
	}
	res := DisseminateResult{Bytes: req.Size, TreeUsed: tree.String()}
	start := m.sched.Now()
	received := make(map[cloud.SiteID]int) // chunks fully received per site
	remainingDests := len(req.Dests)

	var pump func(te *treeEdge)
	deliver := func(site cloud.SiteID, c *chunk) {
		received[site]++
		if isDest[site] && received[site] == len(chunks) {
			res.Dests = append(res.Dests, DestReport{
				Dest: site, Duration: m.sched.Now() - start,
			})
			if d := m.sched.Now() - start; d > res.Makespan {
				res.Makespan = d
			}
			remainingDests--
			if remainingDests == 0 {
				// Charge VM time for every engaged worker node.
				nodes := map[string]float64{}
				for _, te := range edges {
					for _, w := range te.workers {
						nodes[w.src.ID] = w.src.Class.PricePerHour
						nodes[w.dst.ID] = w.dst.Class.PricePerHour
					}
				}
				ids := make([]string, 0, len(nodes))
				for id := range nodes {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					res.Cost += nodes[id] * res.Makespan.Hours() * req.Intr
				}
				sort.Slice(res.Dests, func(i, j int) bool { return res.Dests[i].Dest < res.Dests[j].Dest })
				if onDone != nil {
					cb := onDone
					r := res
					m.sched.After(0, func() { cb(r) })
				}
			}
		}
		// Forward to children.
		for _, child := range children[site] {
			te := edges[[2]cloud.SiteID{site, child}]
			te.queue = append(te.queue, c)
			pump(te)
		}
	}
	pump = func(te *treeEdge) {
		for _, w := range te.workers {
			if w.busy || len(te.queue) == 0 {
				continue
			}
			if w.src.Failed() || w.dst.Failed() {
				// Leave the chunk for a healthy sibling worker.
				continue
			}
			w := w
			c := te.queue[0]
			te.queue = te.queue[1:]
			w.busy = true
			cap := req.Intr * w.src.Class.NICMBps
			m.net.StartFlow(w.src, w.dst, c.size, netsim.FlowOpts{CapMBps: cap}, func(f *netsim.Flow) {
				w.busy = false
				if f.Err() != nil {
					// Requeue through any worker of this edge.
					te.queue = append(te.queue, c)
				} else {
					if w.src.Site != w.dst.Site {
						res.WANBytes += c.size
						if w.src.Site == req.From {
							res.SrcEgressBytes += c.size
						}
						if s := m.net.Topology().Site(w.src.Site); s != nil {
							res.Cost += cloud.EgressCost(s, c.size)
						}
					}
					deliver(te.to, c)
				}
				pump(te)
			})
		}
	}
	// Seed the root's outgoing edges with every chunk.
	var rootEdges []*treeEdge
	for _, child := range children[req.From] {
		rootEdges = append(rootEdges, edges[[2]cloud.SiteID{req.From, child}])
	}
	for _, c := range chunks {
		for _, te := range rootEdges {
			te.queue = append(te.queue, c)
		}
	}
	for _, te := range rootEdges {
		pump(te)
	}
	return nil
}
