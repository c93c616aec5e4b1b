package transfer

import (
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
)

func TestDatagramFullDeliveryOnHealthyLink(t *testing.T) {
	r := newRig(t, false)
	var res *DatagramResult
	// Pace at 5 MB/s over a 10 MB/s link: everything must arrive.
	err := r.mgr.SendDatagramJob(0, "A", "B", 50<<20, 5, func(x DatagramResult) { res = &x })
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Hour)
	if res == nil {
		t.Fatal("datagram did not report")
	}
	if res.LossRate > 0.001 {
		t.Fatalf("loss on healthy link: %v", res.LossRate)
	}
	// Duration deterministic: 50 MiB at 5 MB/s ≈ 10.5s (+RTT).
	want := float64(50<<20) / 5e6
	if math.Abs(res.Duration.Seconds()-want) > 0.5 {
		t.Fatalf("duration = %v, want ~%.1fs", res.Duration, want)
	}
}

func TestDatagramLossWhenOverdriven(t *testing.T) {
	r := newRig(t, false)
	var res *DatagramResult
	// Pace at 20 MB/s over a 10 MB/s link: about half must be lost.
	err := r.mgr.SendDatagramJob(0, "A", "B", 50<<20, 20, func(x DatagramResult) { res = &x })
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Hour)
	if res == nil {
		t.Fatal("datagram did not report")
	}
	if res.LossRate < 0.35 || res.LossRate > 0.65 {
		t.Fatalf("loss = %v, want ~0.5 when pacing 2x capacity", res.LossRate)
	}
	if res.Delivered+int64(float64(res.Offered)*res.LossRate) != res.Offered {
		t.Fatal("loss accounting inconsistent")
	}
}

func TestDatagramDeterministicLatencyUnderCollapse(t *testing.T) {
	// Even when the link collapses mid-send, the sender finishes on
	// schedule — the whole point of the lossy mode.
	r := newRig(t, false)
	var res *DatagramResult
	err := r.mgr.SendDatagramJob(0, "A", "B", 50<<20, 5, func(x DatagramResult) { res = &x })
	if err != nil {
		t.Fatal(err)
	}
	r.sched.After(2*time.Second, func() { r.net.SetLinkScale("A", "B", 0.1) })
	r.sched.RunFor(time.Hour)
	if res == nil {
		t.Fatal("datagram did not report")
	}
	want := float64(50<<20) / 5e6
	if math.Abs(res.Duration.Seconds()-want) > 0.5 {
		t.Fatalf("collapse changed datagram latency: %v", res.Duration)
	}
	if res.LossRate < 0.5 {
		t.Fatalf("collapsed link should lose most bytes, lost %v", res.LossRate)
	}
}

func TestDatagramValidation(t *testing.T) {
	r := newRig(t, false)
	cases := []struct {
		from, to cloud.SiteID
		size     int64
		rate     float64
	}{
		{"A", "B", 0, 5},
		{"A", "B", 100, 0},
		{"A", "A", 100, 5},
	}
	for i, c := range cases {
		if err := r.mgr.SendDatagramJob(0, c.from, c.to, c.size, c.rate, nil); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDatagramCost(t *testing.T) {
	r := newRig(t, false)
	var res *DatagramResult
	if err := r.mgr.SendDatagramJob(0, "A", "B", 1<<30, 8, func(x DatagramResult) { res = &x }); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Hour)
	if res == nil {
		t.Fatal("no report")
	}
	if res.Cost <= 0 {
		t.Fatal("datagram transfers are not free")
	}
	// Egress floor: ~1 GiB delivered at 0.12/GB.
	if res.LossRate < 0.01 && res.Cost < 0.11 {
		t.Fatalf("cost %v below egress floor", res.Cost)
	}
}
