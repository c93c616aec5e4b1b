package workload

import (
	"math"
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
// multiples of step = span/n, is the window drawn in one call — every field
// of every event, so the same draws in the same order and the same
// timestamps. Both forms of a block are held to it: AppendEvents over a
// sub-span, and the columnar FillBlock the engine uses, materialised.
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
			g, gc := NewSensorGen(rng.New(9), "A", opt), NewSensorGen(rng.New(9), "A", opt)
			var blocks, columnar, buf []stream.Event
			var col stream.Block
			if n > 0 {
				step := span / time.Duration(n)
				for i0 := 0; i0 < n; i0 += block {
					m := min(block, n-i0)
					buf = g.AppendEvents(buf[:0], m, from+simtime.Time(i0)*step, time.Duration(m)*step)
					blocks = append(blocks, buf...)
					gc.FillBlock(&col, m, from+simtime.Time(i0)*step, step)
					if len(col.IDs) != m || len(col.Values) != m || col.Table != gc.Table() {
						t.Fatalf("%s n=%d: FillBlock(%d) left %d IDs, %d values, table %p", name, n, m, len(col.IDs), len(col.Values), col.Table)
					}
					columnar = col.AppendEvents(columnar)
				}
			}
			for form, got := range map[string][]stream.Event{"AppendEvents": blocks, "FillBlock": columnar} {
				if len(got) != len(whole) {
					t.Fatalf("%s n=%d: %d events in %s blocks, %d whole", name, n, len(got), form, len(whole))
				}
				for i := range whole {
					if got[i] != whole[i] {
						t.Fatalf("%s n=%d event %d: %s blocks %+v, whole %+v", name, n, i, form, got[i], whole[i])
					}
				}
			}
		}
	}
}

// TestNextIsAOneEventWindow: Next is the same draw loop too.
func TestNextIsAOneEventWindow(t *testing.T) {
	opt := SensorOpts{Keys: 50, Skew: 1.3, DriftPerHour: 4}
	a, b := NewSensorGen(rng.New(10), "A", opt), NewSensorGen(rng.New(10), "A", opt)
	for i := 0; i < 100; i++ {
		at := simtime.Time(i) * simtime.Time(7*time.Minute)
		if got, want := a.Next(at), b.AppendEvents(nil, 1, at, time.Second)[0]; got != want {
			t.Fatalf("draw %d: Next %+v, AppendEvents %+v", i, got, want)
		}
	}
}

// TestKeysHaveTheirOwnStream pins rng's rule — every stochastic component
// draws from its own stream — inside the generator: keys are drawn from the
// stream the generator was built from and from nothing else, so the key
// sequence, which is all that partial sizes (and so bytes, cost and latency)
// depend on, is independent of the value options and of how values are
// sampled. Values used to interleave with keys on one stream; then the twin
// below, which draws keys only, lost step after the first event.
func TestKeysHaveTheirOwnStream(t *testing.T) {
	const n = 2000
	for name, c := range map[string]struct {
		keys int
		skew float64
	}{"uniform": {50, 0}, "zipf": {50, 1.3}} {
		// A twin of the key stream: the generator takes one word from it to
		// split the value stream off, then one word per key.
		twin := rng.New(12)
		twin.Uint64()
		var draw func() uint64
		if c.skew > 1 {
			draw = rng.NewZipf(twin, c.skew, 1, uint64(c.keys-1)).Uint64
		} else {
			draw = func() uint64 { return uint64(twin.Intn(c.keys)) }
		}
		var ref []stream.Event
		for i, opt := range []SensorOpts{
			{Keys: c.keys, Skew: c.skew},
			{Keys: c.keys, Skew: c.skew, Mean: -3, Stddev: 40},
			{Keys: c.keys, Skew: c.skew, Mean: 7, Stddev: 0.5, DriftPerHour: 9},
		} {
			g := NewSensorGen(rng.New(12), "A", opt)
			evs := g.Events(n, 0, time.Hour)
			if i == 0 {
				ref = evs
				for j, e := range evs {
					if want := g.Table().Key(int(draw()) + 1); e.Key != want {
						t.Fatalf("%s: event %d has key %q, the key stream alone gives %q", name, j, e.Key, want)
					}
				}
				continue
			}
			differ := 0
			for j, e := range evs {
				if e.Key != ref[j].Key || e.KeyID != ref[j].KeyID {
					t.Fatalf("%s: value options %+v moved key %d: %q, was %q", name, opt, j, e.Key, ref[j].Key)
				}
				if e.Value != ref[j].Value {
					differ++
				}
			}
			if differ < n*9/10 {
				t.Fatalf("%s: value options %+v changed only %d of %d values", name, opt, differ, n)
			}
		}
	}
}

// TestSensorGenValueMoments: values follow Normal(Mean, Stddev) — the
// sampler's own fit is rng's TestZigguratGoodnessOfFit; this pins the scaling.
func TestSensorGenValueMoments(t *testing.T) {
	g := NewSensorGen(rng.New(13), "A", SensorOpts{Mean: -3, Stddev: 40})
	const n = 200_000
	var sum, sumSq float64
	for _, e := range g.Events(n, 0, time.Hour) {
		sum += e.Value
		sumSq += e.Value * e.Value
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	// Standard errors: 40/√n ≈ 0.09 for the mean, 40/√(2n) ≈ 0.06 for sd.
	if math.Abs(mean+3) > 0.5 || math.Abs(sd-40) > 0.4 {
		t.Fatalf("values have mean %.3f, sd %.3f; want -3, 40", mean, sd)
	}
}

// TestStageSteadyStateAllocs: a source's stage in steady state — refill the
// block, fold it, advance, recycle, as RunBenchmarkStreamPipeline drives it —
// allocates nothing, for either key law and with drift.
func TestStageSteadyStateAllocs(t *testing.T) {
	for name, opt := range map[string]SensorOpts{
		"uniform":    {Keys: 50},
		"zipf+drift": {Keys: 50, Skew: 1.3, DriftPerHour: 4},
	} {
		g := NewSensorGen(rng.New(14), "A", opt)
		p := pipeline{gen: g, agg: stream.NewWindowAggDense(pipelineSpan, stream.Mean, g.Table())}
		// Two windows bring the block, the aggregate pool and the closed-batch
		// slice into existence.
		p.window()
		p.window()
		if a := testing.AllocsPerRun(100, p.window); a != 0 {
			t.Fatalf("%s: a steady-state stage allocates %v per window", name, a)
		}
	}
}
