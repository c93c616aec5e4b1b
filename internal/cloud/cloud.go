// Package cloud models the static geography and economics of a public cloud:
// datacenters (sites), virtual machine classes, wide-area link baselines and
// prices. It is the configuration substrate underneath the netsim dynamic
// simulator — cloud says what the infrastructure looks like on paper, netsim
// says how it behaves minute to minute.
//
// The default topology mirrors the six Azure EU/US datacenters used in
// SAGE-era multi-site studies (North/West Europe, North/South/East/West US),
// with single-flow wide-area throughput baselines in the 6–25 MB/s range,
// intra-site transfers at least an order of magnitude faster, and 2013-era
// prices. Absolute numbers are calibration inputs, not measurements; every
// experiment reports shapes (ratios, crossovers), which are robust to the
// exact values.
package cloud

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// SiteID identifies a datacenter, e.g. "NEU" for North Europe.
type SiteID string

// Canonical site identifiers of the default topology.
const (
	NorthEU SiteID = "NEU"
	WestEU  SiteID = "WEU"
	NorthUS SiteID = "NUS"
	SouthUS SiteID = "SUS"
	EastUS  SiteID = "EUS"
	WestUS  SiteID = "WUS"
)

// Site is a datacenter.
type Site struct {
	ID   SiteID
	Name string
	// Region groups sites for pricing ("EU", "US").
	Region string
	// EgressPerGB is the price in USD charged per GB leaving the site.
	// Inbound traffic is free, as on the major public clouds.
	EgressPerGB float64
}

// VMClass describes an instance type.
type VMClass struct {
	Name string
	// CPUs is the number of virtual cores.
	CPUs int
	// MemGB is the memory size in GB.
	MemGB float64
	// NICMBps is the network interface capacity in megabytes per second
	// (each direction).
	NICMBps float64
	// PricePerHour is the lease price in USD.
	PricePerHour float64
	// CPUScore is a relative compute-speed factor (Small = 1).
	CPUScore float64
}

// The three instance classes used throughout the evaluation. NIC capacities
// follow the 100/200/800 Mbps tiers (converted to MB/s).
var (
	Small  = VMClass{Name: "Small", CPUs: 1, MemGB: 1.75, NICMBps: 12.5, PricePerHour: 0.06, CPUScore: 1}
	Medium = VMClass{Name: "Medium", CPUs: 2, MemGB: 3.5, NICMBps: 25, PricePerHour: 0.12, CPUScore: 2}
	XLarge = VMClass{Name: "XLarge", CPUs: 8, MemGB: 14, NICMBps: 100, PricePerHour: 0.48, CPUScore: 8}
)

// LinkSpec is the nominal behaviour of the directed wide-area link between
// two sites, before multi-tenant variability is applied.
type LinkSpec struct {
	From, To SiteID
	// BaseMBps is the long-run mean capacity available to one deployment,
	// in megabytes per second.
	BaseMBps float64
	// RTT is the round-trip latency.
	RTT time.Duration
	// Jitter is the relative magnitude of capacity variability
	// (sigma/mean of the OU process netsim runs on this link).
	Jitter float64
}

// Topology is the set of sites and directed inter-site links.
type Topology struct {
	sites map[SiteID]*Site
	links map[[2]SiteID]*LinkSpec
	// order is links sorted as Links returns them, built by the first Links
	// after an AddLink. Atomic because engines built in parallel may share
	// one topology.
	order atomic.Pointer[[]*LinkSpec]
	// IntraMBps is the node-to-node throughput inside one site. The
	// defining empirical fact is intra-site >= 10x inter-site.
	IntraMBps float64
	// IntraRTT is the round-trip latency inside a site.
	IntraRTT time.Duration
}

// NewTopology returns an empty topology with the given intra-site baseline.
func NewTopology(intraMBps float64, intraRTT time.Duration) *Topology {
	return newTopology(intraMBps, intraRTT, 0, 0)
}

// newTopology is NewTopology with room for the given numbers of sites and
// directed links.
func newTopology(intraMBps float64, intraRTT time.Duration, sites, links int) *Topology {
	return &Topology{
		sites:     make(map[SiteID]*Site, sites),
		links:     make(map[[2]SiteID]*LinkSpec, links),
		IntraMBps: intraMBps,
		IntraRTT:  intraRTT,
	}
}

// AddSite registers a site. Adding a duplicate ID panics: topologies are
// built once, at configuration time, and a duplicate is a configuration bug.
func (t *Topology) AddSite(s *Site) {
	if _, ok := t.sites[s.ID]; ok {
		panic(fmt.Sprintf("cloud: duplicate site %q", s.ID))
	}
	t.sites[s.ID] = s
}

// AddLink registers a directed link. Both endpoints must exist.
func (t *Topology) AddLink(l LinkSpec) {
	if _, ok := t.sites[l.From]; !ok {
		panic(fmt.Sprintf("cloud: link from unknown site %q", l.From))
	}
	if _, ok := t.sites[l.To]; !ok {
		panic(fmt.Sprintf("cloud: link to unknown site %q", l.To))
	}
	if l.From == l.To {
		panic("cloud: self-link not allowed; intra-site traffic uses IntraMBps")
	}
	spec := l
	t.links[[2]SiteID{l.From, l.To}] = &spec
	t.order.Store(nil)
}

// AddSymmetricLink registers the link in both directions.
func (t *Topology) AddSymmetricLink(l LinkSpec) {
	t.AddLink(l)
	l.From, l.To = l.To, l.From
	t.AddLink(l)
}

// Site returns the site with the given ID, or nil.
func (t *Topology) Site(id SiteID) *Site { return t.sites[id] }

// Sites returns all sites sorted by ID for deterministic iteration.
func (t *Topology) Sites() []*Site {
	out := make([]*Site, 0, len(t.sites))
	for _, s := range t.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SiteIDs returns all site IDs in sorted order.
func (t *Topology) SiteIDs() []SiteID {
	sites := t.Sites()
	out := make([]SiteID, len(sites))
	for i, s := range sites {
		out[i] = s.ID
	}
	return out
}

// Link returns the directed link spec between two distinct sites, or nil
// when none is configured.
func (t *Topology) Link(from, to SiteID) *LinkSpec {
	return t.links[[2]SiteID{from, to}]
}

// Links returns all links sorted by (From, To), in a slice the caller owns.
// The order is sorted once per set of links, not once per call.
func (t *Topology) Links() []*LinkSpec {
	order := t.order.Load()
	if order == nil {
		keys := make([][2]SiteID, 0, len(t.links))
		for k := range t.links {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		links := make([]*LinkSpec, len(keys))
		for i, k := range keys {
			links[i] = t.links[k]
		}
		order = &links
		t.order.Store(order)
	}
	return slices.Clone(*order)
}

// MinWANRTT returns the smallest round-trip latency of any inter-site link,
// or zero for a linkless topology. It is the conservative lookahead bound
// for sharded simulation: no cross-site interaction can begin to affect
// another site in less than the fastest WAN link's RTT.
func (t *Topology) MinWANRTT() time.Duration {
	var min time.Duration
	for _, l := range t.links {
		if min == 0 || l.RTT < min {
			min = l.RTT
		}
	}
	return min
}

// RTT returns the round-trip latency between two sites (IntraRTT when they
// are equal). It returns false when the sites are distinct and unlinked.
func (t *Topology) RTT(from, to SiteID) (time.Duration, bool) {
	if from == to {
		return t.IntraRTT, true
	}
	l := t.Link(from, to)
	if l == nil {
		return 0, false
	}
	return l.RTT, true
}

// DefaultAzure returns the six-site EU/US topology used by every experiment.
// Inter-site baselines are single-deployment wide-area throughputs:
// intra-continent links are faster (15–25 MB/s) than transatlantic ones
// (6–11 MB/s), and jitter is higher on longer paths. Intra-site throughput
// is 250 MB/s, >= 10x any WAN link, matching the empirical observation that
// motivates intra-site replication before WAN send.
func DefaultAzure() *Topology {
	t := NewTopology(250, 2*time.Millisecond)
	for _, s := range []*Site{
		{ID: NorthEU, Name: "North Europe (Dublin)", Region: "EU", EgressPerGB: 0.12},
		{ID: WestEU, Name: "West Europe (Amsterdam)", Region: "EU", EgressPerGB: 0.12},
		{ID: NorthUS, Name: "North Central US (Chicago)", Region: "US", EgressPerGB: 0.12},
		{ID: SouthUS, Name: "South Central US (San Antonio)", Region: "US", EgressPerGB: 0.12},
		{ID: EastUS, Name: "East US (Virginia)", Region: "US", EgressPerGB: 0.12},
		{ID: WestUS, Name: "West US (California)", Region: "US", EgressPerGB: 0.12},
	} {
		t.AddSite(s)
	}
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	links := []LinkSpec{
		// Intra-Europe.
		{From: NorthEU, To: WestEU, BaseMBps: 24, RTT: ms(24), Jitter: 0.18},
		// Intra-US mesh.
		{From: NorthUS, To: SouthUS, BaseMBps: 20, RTT: ms(34), Jitter: 0.20},
		{From: NorthUS, To: EastUS, BaseMBps: 21, RTT: ms(28), Jitter: 0.18},
		{From: NorthUS, To: WestUS, BaseMBps: 15, RTT: ms(52), Jitter: 0.22},
		{From: SouthUS, To: EastUS, BaseMBps: 19, RTT: ms(36), Jitter: 0.20},
		{From: SouthUS, To: WestUS, BaseMBps: 17, RTT: ms(44), Jitter: 0.22},
		{From: EastUS, To: WestUS, BaseMBps: 14, RTT: ms(62), Jitter: 0.24},
		// Transatlantic.
		{From: NorthEU, To: NorthUS, BaseMBps: 9, RTT: ms(98), Jitter: 0.30},
		{From: NorthEU, To: EastUS, BaseMBps: 11, RTT: ms(88), Jitter: 0.28},
		{From: NorthEU, To: SouthUS, BaseMBps: 8, RTT: ms(112), Jitter: 0.30},
		{From: NorthEU, To: WestUS, BaseMBps: 6, RTT: ms(142), Jitter: 0.34},
		{From: WestEU, To: NorthUS, BaseMBps: 8.5, RTT: ms(102), Jitter: 0.30},
		{From: WestEU, To: EastUS, BaseMBps: 10, RTT: ms(90), Jitter: 0.28},
		{From: WestEU, To: SouthUS, BaseMBps: 7.5, RTT: ms(116), Jitter: 0.30},
		{From: WestEU, To: WestUS, BaseMBps: 6.5, RTT: ms(146), Jitter: 0.34},
	}
	for _, l := range links {
		t.AddSymmetricLink(l)
	}
	return t
}

// EgressCost returns the price of sending bytes out of a site.
func EgressCost(s *Site, bytes int64) float64 {
	return s.EgressPerGB * float64(bytes) / (1 << 30)
}
