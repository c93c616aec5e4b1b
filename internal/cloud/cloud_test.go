package cloud

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestDefaultAzureSites(t *testing.T) {
	topo := DefaultAzure()
	ids := topo.SiteIDs()
	if len(ids) != 6 {
		t.Fatalf("want 6 sites, got %d", len(ids))
	}
	want := map[SiteID]bool{NorthEU: true, WestEU: true, NorthUS: true, SouthUS: true, EastUS: true, WestUS: true}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected site %q", id)
		}
	}
}

func TestDefaultAzureFullMesh(t *testing.T) {
	topo := DefaultAzure()
	ids := topo.SiteIDs()
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			l := topo.Link(a, b)
			if l == nil {
				t.Fatalf("missing link %s -> %s", a, b)
			}
			if l.BaseMBps <= 0 || l.RTT <= 0 || l.Jitter <= 0 {
				t.Fatalf("link %s->%s has non-positive parameters: %+v", a, b, l)
			}
		}
	}
}

func TestIntraSiteAtLeast10xWAN(t *testing.T) {
	topo := DefaultAzure()
	for _, l := range topo.Links() {
		if topo.IntraMBps < 10*l.BaseMBps {
			t.Fatalf("intra-site %v MB/s is not >= 10x link %s->%s (%v MB/s)",
				topo.IntraMBps, l.From, l.To, l.BaseMBps)
		}
	}
}

func TestTransatlanticSlowerThanContinental(t *testing.T) {
	topo := DefaultAzure()
	transatlantic := topo.Link(NorthEU, NorthUS).BaseMBps
	continentalEU := topo.Link(NorthEU, WestEU).BaseMBps
	continentalUS := topo.Link(NorthUS, SouthUS).BaseMBps
	if transatlantic >= continentalEU || transatlantic >= continentalUS {
		t.Fatalf("transatlantic %v should be slower than continental %v / %v",
			transatlantic, continentalEU, continentalUS)
	}
	if topo.Link(NorthEU, NorthUS).RTT <= topo.Link(NorthEU, WestEU).RTT {
		t.Fatal("transatlantic RTT should exceed continental RTT")
	}
}

func TestLinksSymmetricallyDefined(t *testing.T) {
	topo := DefaultAzure()
	for _, l := range topo.Links() {
		rev := topo.Link(l.To, l.From)
		if rev == nil {
			t.Fatalf("link %s->%s has no reverse", l.From, l.To)
		}
		if rev.BaseMBps != l.BaseMBps || rev.RTT != l.RTT {
			t.Fatalf("asymmetric defaults for %s<->%s", l.From, l.To)
		}
	}
}

func TestRTT(t *testing.T) {
	topo := DefaultAzure()
	if rtt, ok := topo.RTT(NorthEU, NorthEU); !ok || rtt != topo.IntraRTT {
		t.Fatalf("intra RTT = %v,%v", rtt, ok)
	}
	if rtt, ok := topo.RTT(NorthEU, NorthUS); !ok || rtt <= 0 {
		t.Fatalf("WAN RTT = %v,%v", rtt, ok)
	}
	empty := NewTopology(100, time.Millisecond)
	empty.AddSite(&Site{ID: "A"})
	empty.AddSite(&Site{ID: "B"})
	if _, ok := empty.RTT("A", "B"); ok {
		t.Fatal("RTT between unlinked sites should report false")
	}
}

func TestDuplicateSitePanics(t *testing.T) {
	topo := NewTopology(100, time.Millisecond)
	topo.AddSite(&Site{ID: "A"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddSite should panic")
		}
	}()
	topo.AddSite(&Site{ID: "A"})
}

func TestSelfLinkPanics(t *testing.T) {
	topo := NewTopology(100, time.Millisecond)
	topo.AddSite(&Site{ID: "A"})
	defer func() {
		if recover() == nil {
			t.Fatal("self-link should panic")
		}
	}()
	topo.AddLink(LinkSpec{From: "A", To: "A", BaseMBps: 1, RTT: time.Millisecond})
}

func TestLinkUnknownSitePanics(t *testing.T) {
	topo := NewTopology(100, time.Millisecond)
	topo.AddSite(&Site{ID: "A"})
	defer func() {
		if recover() == nil {
			t.Fatal("link to unknown site should panic")
		}
	}()
	topo.AddLink(LinkSpec{From: "A", To: "Z", BaseMBps: 1, RTT: time.Millisecond})
}

func TestSitesSorted(t *testing.T) {
	topo := DefaultAzure()
	ids := topo.SiteIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("SiteIDs not sorted: %v", ids)
		}
	}
	links := topo.Links()
	for i := 1; i < len(links); i++ {
		a, b := links[i-1], links[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("Links not sorted at %d", i)
		}
	}
}

// TestLinksOrderSurvivesCallers: Links sorts once per set of links, engines
// built at once over one topology may all ask for the first sort, a caller
// that writes the slice it got leaves the next caller's order intact, and an
// AddLink is in the next order.
func TestLinksOrderSurvivesCallers(t *testing.T) {
	topo := DefaultAzure()
	concurrent := make([][]*LinkSpec, 4)
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i] = topo.Links()
		}(i)
	}
	wg.Wait()
	for _, links := range concurrent[1:] {
		if !slices.Equal(links, concurrent[0]) {
			t.Fatalf("concurrent first calls disagree: %v, %v", links, concurrent[0])
		}
	}
	first := topo.Links()
	want := slices.Clone(first)
	first[0], first[1] = nil, first[0]
	if got := topo.Links(); !slices.Equal(got, want) {
		t.Fatalf("a caller's write reached the next Links: %v, want %v", got, want)
	}
	topo.AddSite(&Site{ID: "AAA"})
	topo.AddLink(LinkSpec{From: "AAA", To: NorthEU, BaseMBps: 5})
	if got := topo.Links(); len(got) != len(want)+1 || got[0].From != "AAA" || !slices.Equal(got[1:], want) {
		t.Fatalf("Links after AddLink = %v, want the new link first, then %v", got, want)
	}
}

func TestVMClasses(t *testing.T) {
	if Small.NICMBps*2 != Medium.NICMBps {
		t.Fatalf("Medium NIC should be 2x Small: %v vs %v", Medium.NICMBps, Small.NICMBps)
	}
	if XLarge.NICMBps != 100 {
		t.Fatalf("XLarge NIC = %v, want 100 MB/s (800 Mbps)", XLarge.NICMBps)
	}
	if !(Small.PricePerHour < Medium.PricePerHour && Medium.PricePerHour < XLarge.PricePerHour) {
		t.Fatal("prices must increase with class size")
	}
}

func TestEgressCost(t *testing.T) {
	s := &Site{ID: "A", EgressPerGB: 0.12}
	got := EgressCost(s, 1<<30) // exactly 1 GB
	if diff := got - 0.12; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("EgressCost(1GB) = %v, want 0.12", got)
	}
	if EgressCost(s, 0) != 0 {
		t.Fatal("EgressCost(0) should be 0")
	}
}
