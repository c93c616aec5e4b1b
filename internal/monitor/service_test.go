package monitor

import (
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/simtime"
)

func testNet() (*simtime.Scheduler, *netsim.Network) {
	sched := simtime.New()
	topo := cloud.NewTopology(250, 2*time.Millisecond)
	topo.AddSite(&cloud.Site{ID: "A"})
	topo.AddSite(&cloud.Site{ID: "B"})
	topo.AddSite(&cloud.Site{ID: "C"})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "B", BaseMBps: 10, RTT: 10 * time.Millisecond, Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "B", To: "C", BaseMBps: 20, RTT: 10 * time.Millisecond, Jitter: 1e-9})
	net := netsim.New(sched, topo, rng.New(1), netsim.Options{GlitchMeanGap: -1, ProbeNoise: 0.02})
	return sched, net
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	for i := 1; i <= 5; i++ {
		h.Add(Sample{Value: float64(i)})
	}
	if h.Len() != 3 || h.Total() != 5 {
		t.Fatalf("Len=%d Total=%d", h.Len(), h.Total())
	}
	got := h.Samples()
	want := []float64{3, 4, 5}
	for i, s := range got {
		if s.Value != want[i] {
			t.Fatalf("Samples = %v, want oldest-first %v", got, want)
		}
	}
}

func TestHistoryPartial(t *testing.T) {
	h := NewHistory(10)
	h.Add(Sample{Value: 1})
	h.Add(Sample{Value: 2})
	got := h.Samples()
	if len(got) != 2 || got[0].Value != 1 || got[1].Value != 2 {
		t.Fatalf("Samples = %v", got)
	}
}

// fixedRing is the ring History was before its storage grew on demand: all
// capacity slots allocated up front. It is the oracle of
// TestHistoryMatchesFixedRing.
type fixedRing struct {
	buf         []Sample
	next, total int
}

func (r *fixedRing) add(s Sample) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

func (r *fixedRing) samples() []Sample {
	if len(r.buf) == cap(r.buf) {
		return append(append([]Sample{}, r.buf[r.next:]...), r.buf[:r.next]...)
	}
	return append([]Sample{}, r.buf...)
}

// TestHistoryMatchesFixedRing: a History whose storage grows as samples
// arrive lists, counts and totals exactly what the fixed-capacity ring did
// after N = 0, 1, cap−1, cap, cap+1 and 3·cap samples, and never holds more
// than twice the samples it has seen (at least four slots) or more than its
// capacity.
func TestHistoryMatchesFixedRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 8, 512} {
		for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3 * capacity} {
			h, ring := NewHistory(capacity), &fixedRing{buf: make([]Sample, 0, capacity)}
			for i := 0; i < n; i++ {
				s := Sample{Value: float64(i), At: simtime.Time(i) * simtime.Time(time.Second)}
				h.Add(s)
				ring.add(s)
				if room := cap(h.buf); room > capacity || room > max(4, 2*(i+1)) {
					t.Fatalf("cap %d: %d slots after %d samples", capacity, room, i+1)
				}
			}
			got, want := h.Samples(), ring.samples()
			if h.Len() != len(ring.buf) || h.Total() != ring.total || len(got) != len(want) {
				t.Fatalf("cap %d, N %d: Len %d Total %d Samples %v; ring %d %d %v",
					capacity, n, h.Len(), h.Total(), got, len(ring.buf), ring.total, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cap %d, N %d: Samples %v, ring %v", capacity, n, got, want)
				}
			}
		}
	}
}

func TestHistoryInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistory(0)
}

func TestServiceLearningPhase(t *testing.T) {
	_, net := testNet()
	s := NewService(net, Options{LearningProbes: 3})
	s.Start()
	// Without advancing time, the learning probes must already be present.
	if mean, _ := s.Estimate("A", "B"); math.Abs(mean-10) > 2 {
		t.Fatalf("post-learning estimate = %v, want ~10", mean)
	}
	st := s.State("A", "B")
	if st.Estimator.Count() != 3 {
		t.Fatalf("learning probes = %d, want 3", st.Estimator.Count())
	}
}

func TestServicePeriodicProbing(t *testing.T) {
	sched, net := testNet()
	s := NewService(net, Options{Interval: 30 * time.Second, LearningProbes: 1})
	s.Start()
	sched.RunFor(10 * time.Minute)
	st := s.State("A", "B")
	if got := st.Estimator.Count(); got != 21 { // 1 learning + 20 ticks
		t.Fatalf("samples = %d, want 21", got)
	}
}

func TestServiceEstimateTracksCapacity(t *testing.T) {
	sched, net := testNet()
	s := NewService(net, Options{Interval: 10 * time.Second})
	s.Start()
	sched.RunFor(5 * time.Minute)
	mean, stddev := s.Estimate("A", "B")
	if math.Abs(mean-10) > 1 {
		t.Fatalf("estimate = %v, want ~10", mean)
	}
	if stddev > 2 {
		t.Fatalf("stddev = %v, too high for quiet link", stddev)
	}
	// After halving capacity, the estimate must follow.
	net.SetLinkScale("A", "B", 0.5)
	sched.RunFor(30 * time.Minute)
	mean, _ = s.Estimate("A", "B")
	if math.Abs(mean-5) > 1.5 {
		t.Fatalf("estimate after degradation = %v, want ~5", mean)
	}
}

func TestServiceIntraSiteEstimate(t *testing.T) {
	_, net := testNet()
	s := NewService(net, Options{})
	mean, stddev := s.Estimate("A", "A")
	if mean != 250 || stddev != 0 {
		t.Fatalf("intra-site estimate = %v,%v; want topology constant", mean, stddev)
	}
}

func TestServiceObserveTransfer(t *testing.T) {
	_, net := testNet()
	s := NewService(net, Options{})
	for i := 0; i < 20; i++ {
		s.ObserveTransfer("A", "B", 7)
	}
	mean, _ := s.Estimate("A", "B")
	if math.Abs(mean-7) > 0.5 {
		t.Fatalf("estimate from transfer feedback = %v, want ~7", mean)
	}
	// Intra-site and unknown links must be ignored without panic.
	s.ObserveTransfer("A", "A", 100)
	s.ObserveTransfer("A", "Z", 100)
}

func TestServiceUnknownLinkPanics(t *testing.T) {
	_, net := testNet()
	s := NewService(net, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown link")
		}
	}()
	s.State("A", "Z")
}

func TestServiceStartTwicePanics(t *testing.T) {
	_, net := testNet()
	s := NewService(net, Options{})
	s.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Start")
		}
	}()
	s.Start()
}

func TestPauseSiteSuspendsAllTouchingLinks(t *testing.T) {
	sched, net := testNet()
	s := NewService(net, Options{Interval: 10 * time.Second})
	s.Start()
	sched.RunFor(35 * time.Second) // a few probe rounds
	ab := s.State("A", "B").History.Total()
	bc := s.State("B", "C").History.Total()
	if ab == 0 || bc == 0 {
		t.Fatal("no probes before pause")
	}

	// Pausing B freezes every link touching B — both directions.
	s.PauseSite("B")
	sched.RunFor(30 * time.Second)
	if got := s.State("A", "B").History.Total(); got != ab {
		t.Fatalf("A-B probed while B paused: %d -> %d", ab, got)
	}
	if got := s.State("B", "C").History.Total(); got != bc {
		t.Fatalf("B-C probed while B paused: %d -> %d", bc, got)
	}

	s.ResumeSite("B")
	sched.RunFor(30 * time.Second)
	if got := s.State("A", "B").History.Total(); got <= ab {
		t.Fatal("A-B probing did not resume")
	}
	if got := s.State("B", "C").History.Total(); got <= bc {
		t.Fatal("B-C probing did not resume")
	}
}
