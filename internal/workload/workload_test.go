package workload

import (
	"strings"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
)

func TestSensorGenDefaults(t *testing.T) {
	g := NewSensorGen(rng.New(1), "NEU", SensorOpts{})
	e := g.Next(time.Second)
	if e.Site != "NEU" || e.Time != time.Second {
		t.Fatalf("event = %+v", e)
	}
	if !strings.HasPrefix(e.Key, "sensor-") {
		t.Fatalf("key = %q", e.Key)
	}
}

func TestSensorGenKeyRange(t *testing.T) {
	g := NewSensorGen(rng.New(2), "A", SensorOpts{Keys: 10})
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[g.Next(0).Key] = true
	}
	if len(seen) > 10 {
		t.Fatalf("saw %d distinct keys, want <= 10", len(seen))
	}
	if len(seen) < 8 {
		t.Fatalf("uniform generator only visited %d of 10 keys", len(seen))
	}
}

func TestSensorGenZipfSkew(t *testing.T) {
	g := NewSensorGen(rng.New(3), "A", SensorOpts{Keys: 100, Skew: 1.5})
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next(0).Key]++
	}
	if counts["sensor-0000"] < 10*counts["sensor-0050"]+1 {
		t.Fatalf("zipf head %d not dominant over mid %d",
			counts["sensor-0000"], counts["sensor-0050"])
	}
}

func TestSensorGenDrift(t *testing.T) {
	g := NewSensorGen(rng.New(4), "A", SensorOpts{Mean: 10, Stddev: 0.001, DriftPerHour: 5})
	early := g.Next(0).Value
	late := g.Next(simtime.Time(2 * time.Hour)).Value
	if late-early < 8 {
		t.Fatalf("drift missing: %v -> %v", early, late)
	}
}

func TestEventsSpacingAndOrder(t *testing.T) {
	g := NewSensorGen(rng.New(5), "A", SensorOpts{})
	evs := g.Events(10, 100*time.Second, 10*time.Second)
	if len(evs) != 10 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Time < 100*time.Second || e.Time >= 110*time.Second {
			t.Fatalf("event %d at %v outside window", i, e.Time)
		}
		if i > 0 && e.Time < evs[i-1].Time {
			t.Fatal("events out of order")
		}
	}
	if got := g.Events(0, 0, time.Second); got != nil {
		t.Fatal("zero events should be nil")
	}
}

func TestConstantRate(t *testing.T) {
	r := ConstantRate(42)
	if r(0) != 42 || r(simtime.Time(time.Hour)) != 42 {
		t.Fatal("constant rate varies")
	}
}

func TestDiurnalRate(t *testing.T) {
	r := DiurnalRate(100, 0.5, 24*time.Hour)
	peak := r(simtime.Time(6 * time.Hour))    // sin peak at quarter period
	trough := r(simtime.Time(18 * time.Hour)) // sin trough
	if peak <= 100 || trough >= 100 {
		t.Fatalf("diurnal shape wrong: peak %v trough %v", peak, trough)
	}
	if peak > 151 || trough < 49 {
		t.Fatalf("amplitude wrong: peak %v trough %v", peak, trough)
	}
	// Full-amplitude modulation never goes negative.
	r2 := DiurnalRate(10, 2, 24*time.Hour)
	if r2(simtime.Time(18*time.Hour)) < 0 {
		t.Fatal("rate went negative")
	}
}

func TestDiurnalInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DiurnalRate(1, 1, 0)
}

func TestEventCount(t *testing.T) {
	if n := EventCount(ConstantRate(10), 0, 30*time.Second); n != 300 {
		t.Fatalf("EventCount = %d, want 300", n)
	}
	if n := EventCount(ConstantRate(0), 0, time.Minute); n != 0 {
		t.Fatalf("zero rate count = %d", n)
	}
}

func TestPartials(t *testing.T) {
	p := Partials{Sites: []cloud.SiteID{"A", "B", "C"}, Files: 10, FileBytes: 5}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalBytes() != 150 || p.PerSiteBytes() != 50 {
		t.Fatalf("Total=%d PerSite=%d", p.TotalBytes(), p.PerSiteBytes())
	}
	bad := []Partials{
		{Files: 10, FileBytes: 5},
		{Sites: p.Sites, FileBytes: 5},
		{Sites: p.Sites, Files: 10},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestAppendEventsReusesBuffer(t *testing.T) {
	g := NewSensorGen(rng.New(6), "A", SensorOpts{Keys: 10})
	buf := g.AppendEvents(nil, 16, 0, 10*time.Second)
	if len(buf) != 16 {
		t.Fatalf("len = %d", len(buf))
	}
	first := &buf[0]
	buf = g.AppendEvents(buf[:0], 16, 10*time.Second, 10*time.Second)
	if len(buf) != 16 {
		t.Fatalf("refill len = %d", len(buf))
	}
	if &buf[0] != first {
		t.Fatal("AppendEvents reallocated a buffer with sufficient capacity")
	}
	// Appending must extend, not overwrite.
	buf = g.AppendEvents(buf, 4, 20*time.Second, time.Second)
	if len(buf) != 20 {
		t.Fatalf("extended len = %d", len(buf))
	}
}

func TestEventsMatchesAppendEvents(t *testing.T) {
	a := NewSensorGen(rng.New(7), "A", SensorOpts{Keys: 20, Skew: 1.3})
	b := NewSensorGen(rng.New(7), "A", SensorOpts{Keys: 20, Skew: 1.3})
	evs := a.Events(50, 0, 30*time.Second)
	app := b.AppendEvents(nil, 50, 0, 30*time.Second)
	if len(evs) != len(app) {
		t.Fatalf("%d vs %d events", len(evs), len(app))
	}
	for i := range evs {
		if evs[i] != app[i] {
			t.Fatalf("event %d: %+v vs %+v", i, evs[i], app[i])
		}
	}
}

func TestSensorGenInternedKeys(t *testing.T) {
	g := NewSensorGen(rng.New(8), "A", SensorOpts{Keys: 5})
	table := g.Table()
	if table == nil || table.Len() != 5 {
		t.Fatalf("table = %v", table)
	}
	for i := 0; i < 100; i++ {
		e := g.Next(0)
		if e.KeyID == 0 {
			t.Fatalf("event %d has no interned KeyID", i)
		}
		if table.Key(e.KeyID) != e.Key {
			t.Fatalf("KeyID %d maps to %q, event key %q", e.KeyID, table.Key(e.KeyID), e.Key)
		}
	}
}

// TestAppendEventsBlockIdentity pins what the engine's block-at-a-time stage
// relies on: a window of n events over span, drawn in blocks that start at
// multiples of step = span/n and span a whole number of steps, is the window
// drawn in one call — every field of every event, so the same draws in the
// same order and the same timestamps.
func TestAppendEventsBlockIdentity(t *testing.T) {
	const block = 64
	from, span := simtime.Time(90*time.Second), 30*time.Second
	for name, opt := range map[string]SensorOpts{
		"uniform":    {Keys: 50},
		"zipf":       {Keys: 50, Skew: 1.3},
		"zipf+drift": {Keys: 50, Skew: 1.3, DriftPerHour: 4},
	} {
		for _, n := range []int{0, 1, block - 1, block, block + 1, 3*block + 17, 1000} {
			whole := NewSensorGen(rng.New(9), "A", opt).AppendEvents(nil, n, from, span)
			g := NewSensorGen(rng.New(9), "A", opt)
			var blocks, buf []stream.Event
			if n > 0 {
				step := span / time.Duration(n)
				for i0 := 0; i0 < n; i0 += block {
					m := min(block, n-i0)
					buf = g.AppendEvents(buf[:0], m, from+simtime.Time(i0)*step, time.Duration(m)*step)
					blocks = append(blocks, buf...)
				}
			}
			if len(blocks) != len(whole) {
				t.Fatalf("%s n=%d: %d events in blocks, %d whole", name, n, len(blocks), len(whole))
			}
			for i := range whole {
				if blocks[i] != whole[i] {
					t.Fatalf("%s n=%d event %d: blocks %+v, whole %+v", name, n, i, blocks[i], whole[i])
				}
			}
		}
	}
}
