package cloud

import (
	"fmt"
	"math"
	"time"

	"sage/internal/rng"
)

// GeneratedSiteID returns the ID of the i-th generated site ("S000"...).
func GeneratedSiteID(i int) SiteID { return SiteID(fmt.Sprintf("S%03d", i)) }

// GeneratedHub returns the hub site of generated region r. By construction
// the first `regions` sites are the hubs: site r anchors region r.
func GeneratedHub(r int) SiteID { return GeneratedSiteID(r) }

// GeneratedRegion returns the region name of generated region r ("R00"...).
func GeneratedRegion(r int) string { return fmt.Sprintf("R%02d", r) }

// GenerateWorld builds a parametric multi-region topology for scale
// experiments: `sites` datacenters assigned round-robin to `regions` regions
// laid out on a circle, with latency and egress pricing structured by the
// geometry. All randomness derives from seed, so a (sites, regions, seed)
// triple names one world reproducibly.
//
// The link structure is hub-and-spoke rather than full mesh, mirroring how
// geo-distributed deployments actually route: region hubs (the first site of
// each region) form a WAN mesh among themselves, and every other site links
// to its own hub (fast regional link) and to every foreign hub (degraded
// long-haul link). This keeps the directed-link count at
// regions·(regions−1) + 2·(sites−regions)·regions — linear in sites for a
// fixed region count — which bounds the per-tick cost of the monitor's
// all-links probing and the netsim allocator at 500-site scale. Any site can
// therefore reach any hub directly; experiments place sinks at hubs.
//
// Numbers stay in the DefaultAzure envelope: regional links 16–26 MB/s at
// 6–18 ms, long-haul links 3–20 MB/s at 40–300 ms with jitter growing with
// distance, intra-site 250 MB/s.
func GenerateWorld(sites, regions int, seed uint64) *Topology {
	if regions < 1 || sites < regions {
		panic(fmt.Sprintf("cloud: GenerateWorld needs sites >= regions >= 1, got %d sites in %d regions",
			sites, regions))
	}
	if sites > 1000 {
		panic(fmt.Sprintf("cloud: GenerateWorld supports at most 1000 sites, got %d", sites))
	}
	r := rng.New(seed).Split("world")
	t := newTopology(250, 2*time.Millisecond, sites, regions*(regions-1)+2*(sites-regions)*regions)
	// Each site ID and region name is formatted once: the spoke loop below
	// names every hub once per site.
	ids := make([]SiteID, sites)
	for i := range ids {
		ids[i] = GeneratedSiteID(i)
	}
	regionNames := make([]string, regions)
	for i := range regionNames {
		regionNames[i] = GeneratedRegion(i)
	}

	// Region geometry: centers on a jittered circle. Chord distance between
	// two regions (normalized to [0, 1]) drives long-haul latency, capacity
	// and jitter, so the world has the "nearby regions are fast, antipodal
	// regions are slow" structure of a real cloud footprint.
	type regionGeo struct{ x, y, egress float64 }
	egressTiers := []float64{0.12, 0.12, 0.19, 0.09, 0.25, 0.15}
	regs := make([]regionGeo, regions)
	for i := range regs {
		ang := 2*math.Pi*float64(i)/float64(regions) + r.Normal(0, 0.05)
		rad := 1 + r.Normal(0, 0.04)
		regs[i] = regionGeo{
			x: rad * math.Cos(ang), y: rad * math.Sin(ang),
			egress: egressTiers[i%len(egressTiers)],
		}
	}
	dist := func(a, b int) float64 {
		d := math.Hypot(regs[a].x-regs[b].x, regs[a].y-regs[b].y) / 2
		return math.Min(d, 1)
	}

	for i := 0; i < sites; i++ {
		reg := i % regions
		role := "site"
		if i < regions {
			role = "hub"
		}
		t.AddSite(&Site{
			ID:          ids[i],
			Name:        fmt.Sprintf("Generated %s %d (%s)", role, i, regionNames[reg]),
			Region:      regionNames[reg],
			EgressPerGB: regs[reg].egress,
		})
	}

	round2 := func(x float64) float64 { return math.Round(x*100) / 100 }
	clamp := func(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }
	msDur := func(m float64) time.Duration {
		return time.Duration(math.Round(m)) * time.Millisecond
	}

	// Hub mesh: one symmetric long-haul link per region pair.
	for a := 0; a < regions; a++ {
		for b := a + 1; b < regions; b++ {
			d := dist(a, b)
			t.AddSymmetricLink(LinkSpec{
				From:     ids[a],
				To:       ids[b],
				BaseMBps: round2(clamp(4+14*(1-d)+r.Normal(0, 0.8), 3, 20)),
				RTT:      msDur(clamp(40+240*d+r.Normal(0, 6), 24, 300)),
				Jitter:   round2(clamp(0.16+0.18*d+r.Normal(0, 0.01), 0.12, 0.4)),
			})
		}
	}

	// Spokes: every non-hub site gets a fast link to its own hub and a
	// degraded long-haul link to each foreign hub (routed past the home
	// region, so it inherits the hub-mesh numbers minus a tether penalty).
	for i := regions; i < sites; i++ {
		home := i % regions
		for h := 0; h < regions; h++ {
			var spec LinkSpec
			if h == home {
				spec = LinkSpec{
					BaseMBps: round2(16 + 10*r.Float64()),
					RTT:      msDur(6 + 12*r.Float64()),
					Jitter:   round2(0.10 + 0.06*r.Float64()),
				}
			} else {
				mesh := t.Link(ids[home], ids[h])
				spec = LinkSpec{
					BaseMBps: round2(clamp(mesh.BaseMBps*(0.72+0.18*r.Float64()), 3, 20)),
					RTT:      mesh.RTT + msDur(4+8*r.Float64()),
					Jitter:   round2(clamp(mesh.Jitter+0.02, 0, 0.42)),
				}
			}
			spec.From, spec.To = ids[i], ids[h]
			t.AddSymmetricLink(spec)
		}
	}
	return t
}
