package baseline

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/simtime"
)

func testEnv() (*simtime.Scheduler, *netsim.Network) {
	sched := simtime.New()
	topo := cloud.DefaultAzure()
	net := netsim.New(sched, topo, rng.New(1), netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9})
	return sched, net
}

func TestPutGetRoundTrip(t *testing.T) {
	sched, net := testEnv()
	store := NewBlobStore(net, cloud.NorthUS)
	src := net.NewNode(cloud.NorthEU, cloud.Medium)
	dst := net.NewNode(cloud.NorthUS, cloud.Medium)
	var putDone, getDone bool
	store.Put(src, 10<<20, func() {
		putDone = true
		store.Get(dst, 10<<20, func() { getDone = true })
	})
	sched.RunFor(time.Hour)
	if !putDone || !getDone {
		t.Fatalf("put=%v get=%v", putDone, getDone)
	}
}

func TestRelayCompletes(t *testing.T) {
	sched, net := testEnv()
	store := NewBlobStore(net, cloud.NorthUS)
	src := net.NewNode(cloud.NorthEU, cloud.Medium)
	dst := net.NewNode(cloud.NorthUS, cloud.Medium)
	var res *RelayResult
	err := store.Relay(RelaySpec{Src: src, Dst: dst, Files: 20, FileBytes: 1 << 20, Parallel: 4},
		func(r RelayResult) { res = &r })
	if err != nil {
		t.Fatal(err)
	}
	sched.RunFor(12 * time.Hour)
	if res == nil {
		t.Fatal("relay did not finish")
	}
	if res.Files != 20 || res.Bytes != 20<<20 {
		t.Fatalf("result = %+v", res)
	}
	if res.Cost <= 0 {
		t.Fatal("relay should cost money")
	}
}

func TestRelaySlowerThanDirectFlow(t *testing.T) {
	// The two-phase staging path must be slower than one direct flow of
	// the same size — the core comparison of the baselines figure.
	sched, net := testEnv()
	store := NewBlobStore(net, cloud.NorthUS)
	src := net.NewNode(cloud.NorthEU, cloud.Medium)
	dst := net.NewNode(cloud.NorthUS, cloud.Medium)
	size := int64(100 << 20)

	var direct time.Duration
	start := sched.Now()
	net.StartFlow(src, dst, size, netsim.FlowOpts{}, func(f *netsim.Flow) {
		direct = sched.Now() - start
	})
	sched.RunFor(6 * time.Hour)
	if direct == 0 {
		t.Fatal("direct flow did not finish")
	}

	var relay *RelayResult
	if err := store.Relay(RelaySpec{Src: src, Dst: dst, Files: 10, FileBytes: size / 10, Parallel: 1},
		func(r RelayResult) { relay = &r }); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(24 * time.Hour)
	if relay == nil {
		t.Fatal("relay did not finish")
	}
	if relay.Duration <= direct {
		t.Fatalf("relay %v should be slower than direct %v", relay.Duration, direct)
	}
}

func TestRelayOverheadDominatesSmallFiles(t *testing.T) {
	// Same volume, 100x more files: per-request overhead must show.
	run := func(files int, fileBytes int64) time.Duration {
		sched, net := testEnv()
		store := NewBlobStore(net, cloud.NorthUS)
		src := net.NewNode(cloud.NorthEU, cloud.Medium)
		dst := net.NewNode(cloud.NorthUS, cloud.Medium)
		var res *RelayResult
		if err := store.Relay(RelaySpec{Src: src, Dst: dst, Files: files, FileBytes: fileBytes, Parallel: 2},
			func(r RelayResult) { res = &r }); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(48 * time.Hour)
		if res == nil {
			t.Fatal("relay did not finish")
		}
		return res.Duration
	}
	many := run(1000, 64<<10)
	few := run(10, 6400<<10)
	if many <= few {
		t.Fatalf("1000 small files (%v) should be slower than 10 large (%v)", many, few)
	}
}

func TestStageTime(t *testing.T) {
	sched, net := testEnv()
	store := NewBlobStore(net, cloud.NorthUS)
	src := net.NewNode(cloud.NorthEU, cloud.Small)
	var staged time.Duration
	store.StageTime(src, 100<<20, func(d time.Duration) { staged = d })
	sched.RunFor(6 * time.Hour)
	if staged <= 0 {
		t.Fatal("staging did not complete")
	}
	// Must include the request overhead and be slower than the raw link
	// (100 MB at <= 9 MB/s wide-area is >= 11s).
	if staged < 11*time.Second {
		t.Fatalf("staging %v implausibly fast", staged)
	}
}

func TestRelayValidation(t *testing.T) {
	_, net := testEnv()
	store := NewBlobStore(net, cloud.NorthUS)
	src := net.NewNode(cloud.NorthEU, cloud.Small)
	dst := net.NewNode(cloud.NorthUS, cloud.Small)
	if err := store.Relay(RelaySpec{Src: src, Dst: dst}, func(RelayResult) {}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFrontendsRoundRobin(t *testing.T) {
	_, net := testEnv()
	store := NewBlobStore(net, cloud.NorthUS)
	seen := map[string]bool{}
	for i := 0; i < 2*frontends; i++ {
		seen[store.frontend().ID] = true
	}
	if len(seen) != frontends {
		t.Fatalf("round-robin visited %d frontends, want %d", len(seen), frontends)
	}
}
