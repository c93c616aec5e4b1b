package workload

import (
	"fmt"
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
	e := g.AppendEvents(nil, 1, time.Second, time.Second)[0]
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
	for _, e := range g.AppendEvents(nil, 1000, 0, time.Second) {
		seen[e.Key] = true
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
	for _, e := range g.AppendEvents(nil, 10000, 0, time.Second) {
		counts[e.Key]++
	}
	if counts["sensor-0000"] < 10*counts["sensor-0050"]+1 {
		t.Fatalf("zipf head %d not dominant over mid %d",
			counts["sensor-0000"], counts["sensor-0050"])
	}
}

func TestSensorGenDrift(t *testing.T) {
	g := NewSensorGen(rng.New(4), "A", SensorOpts{Mean: 10, Stddev: 0.001, DriftPerHour: 5})
	early := g.AppendEvents(nil, 1, 0, time.Second)[0].Value
	late := g.AppendEvents(nil, 1, simtime.Time(2*time.Hour), time.Second)[0].Value
	if late-early < 8 {
		t.Fatalf("drift missing: %v -> %v", early, late)
	}
}

func TestEventsSpacingAndOrder(t *testing.T) {
	g := NewSensorGen(rng.New(5), "A", SensorOpts{})
	evs := g.AppendEvents(nil, 10, 100*time.Second, 10*time.Second)
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
	if got := g.AppendEvents(evs, 0, 0, time.Second); len(got) != len(evs) {
		t.Fatal("zero events should append nothing")
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
	if p.PerSiteBytes() != 50 {
		t.Fatalf("PerSite=%d", p.PerSiteBytes())
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

func TestSensorGenInternedKeys(t *testing.T) {
	g := NewSensorGen(rng.New(8), "A", SensorOpts{Keys: 5})
	table := g.Table()
	if table == nil || table.Len() != 5 {
		t.Fatalf("table = %v", table)
	}
	for i, e := range g.AppendEvents(nil, 100, 0, time.Second) {
		if e.KeyID == 0 {
			t.Fatalf("event %d has no KeyID", i)
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
			evs := g.AppendEvents(nil, n, 0, time.Hour)
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
	for _, e := range g.AppendEvents(nil, n, 0, time.Hour) {
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

// TestFillBlockSequencePinned pins what FillBlock draws: the first 64
// (KeyID, value bits) pairs of a Zipf, a uniform and a Zipf + drift generator
// on seed 17, recorded before rng grew block forms of the key and value
// draws. Only exp20 among the goldens prints an answer that depends on these
// draws; this is the pin that says which sequence a faster draw loop must
// still produce. Re-record it only in a change that means to move the draws.
// Stddev and DriftPerHour are powers of two, so their products are exact and
// the values do not depend on whether the platform fuses mean + sd·z.
func TestFillBlockSequencePinned(t *testing.T) {
	type pair struct {
		id    int32
		value uint64
	}
	for _, c := range []struct {
		name string
		opt  SensorOpts
		want [64]pair
	}{
		{"zipf", SensorOpts{Keys: 1000, Skew: 1.3, Mean: 20, Stddev: 4}, [64]pair{
			{2, 0x402ee2bf473e5a90}, {1, 0x4034ffa25b23e5af}, {1, 0x403605c109c6089c}, {2, 0x4039ce122dad9c67},
			{1, 0x4037736e514e7654}, {1, 0x4036e39149809cd3}, {1, 0x4035991088633d48}, {3, 0x4033942e9a79187e},
			{2, 0x40375ceee6f126d8}, {1, 0x402e8db6da0e3699}, {1, 0x40327fc155a860a6}, {6, 0x4031a1449031e21d},
			{214, 0x4030e9bfb18e7ff4}, {10, 0x4032577e8b1f922b}, {106, 0x4033846ac985ec0f}, {91, 0x403108cae7e97e68},
			{28, 0x40349f5e09fdc010}, {1, 0x4036e1542b7c718f}, {4, 0x4039440d4c2a4e8e}, {1, 0x402eb1107a46a769},
			{38, 0x40377e1c3e10836a}, {5, 0x40355f05d78432df}, {3, 0x402911c014605582}, {115, 0x4027f78eb9c358c5},
			{9, 0x4037d337fe092adc}, {87, 0x4035de9d32358bcb}, {1, 0x40290976c80faf5a}, {3, 0x40362241b8b2745c},
			{791, 0x403541bbf38506b8}, {48, 0x403835af5ffc0b97}, {17, 0x4035dc6323a9479a}, {47, 0x402ec6eba8aa35bf},
			{8, 0x40322115083dcf51}, {2, 0x4032cda9002a8d58}, {2, 0x403c597c5c95eb8a}, {1, 0x40371abb1fd302ff},
			{108, 0x40336fc5e84a141e}, {8, 0x4038b205d9cf25ae}, {1, 0x402f5670aa5c8382}, {17, 0x4032264fed41c7ab},
			{107, 0x4034278514ff0cc4}, {9, 0x4036ef501cea4add}, {93, 0x40331d76d6762c84}, {1, 0x4039807472cd0681},
			{1, 0x4034ce8712a2e0a9}, {28, 0x402f21c6d6522b34}, {43, 0x40316ed6e690d9a4}, {37, 0x4035961d1ef94c3a},
			{807, 0x402fa1f32d109e8a}, {1, 0x403535f39c6defd9}, {630, 0x402fa6abb784d601}, {1, 0x402cbecbbad35b45},
			{1, 0x402b91975cc55d1e}, {6, 0x4035dfef29209556}, {3, 0x4031c140a523d716}, {1, 0x40354fcca4fd1b72},
			{2, 0x4031351681dadba6}, {5, 0x4034e95f50db83d4}, {17, 0x4031597987f8d716}, {25, 0x4036167453e7e4d6},
			{34, 0x402f3ee49c0be70c}, {9, 0x4032e0ae4d77c878}, {1, 0x403119f82810ae1f}, {1, 0x40330c8e43e7e738},
		}},
		{"uniform", SensorOpts{Keys: 20000, Mean: -3, Stddev: 32}, [64]pair{
			{12898, 0xc043ba8171834ae1}, {12954, 0x4013f44b647cb5d3}, {14824, 0x402a5c109c6089c4}, {13289, 0x4045b848b6b6719b},
			{4633, 0x40389b728a73b29c}, {18719, 0x40341c8a4c04e69b}, {9489, 0x402391088633d47d}, {3806, 0xc0197a2cb0dcf03b},
			{8453, 0x4037e777378936bf}, {752, 0xc04464924be392ce}, {10353, 0xc02e03eaa579f59e}, {1196, 0xc035f5db7e70ef1a},
			{8789, 0xc03bb202738c005f}, {10473, 0xc030440ba7036ea8}, {16097, 0xc01b72a6cf427e1e}, {14089, 0xc03ab9a8c0b40cbd},
			{3660, 0x3fffaf04fee007c0}, {17095, 0x40340aa15be38c79}, {9340, 0x4043903530a93a39}, {9549, 0xc0441ddf0b72b12e},
			{2212, 0x4038f0e1f0841b4d}, {7439, 0x401fe0baf0865be4}, {10416, 0xc04f5c7fd73f54fc}, {2339, 0xc050c871463ca73b},
			{15149, 0x403b99bff04956df}, {10464, 0x4027e9d32358bcb7}, {11797, 0xc04f6d126fe0a14d}, {13649, 0x402c241b8b2745c4},
			{18977, 0x401c377e70a0d6fa}, {18131, 0x403ead7affe05cb6}, {9406, 0x4027c6323a94799d}, {6521, 0xc043f228aeab9482},
			{1011, 0xc031f757be118577}, {16715, 0xc029256ffd572a86}, {5869, 0x404fe5f17257ae26}, {17066, 0x4035d5d8fe9817f6},
			{2925, 0xc01e0742f6bd7c3a}, {19583, 0x40414817673c96b7}, {5931, 0xc042d31eab46f8fc}, {11760, 0xc031cd8095f1c2a6},
			{7955, 0xbffc3d7580799dc3}, {8125, 0x40347a80e75256e6}, {15743, 0xc0242892989d37be}, {17528, 0x404481d1cb341a04},
			{12877, 0x400ba1c4a8b82a42}, {18432, 0xc0433c72535ba997}, {3960, 0xc0378948cb7932e2}, {16102, 0x402361d1ef94c39b},
			{8850, 0xc0423c19a5dec2ed}, {4726, 0x401abe738dbdfb28}, {14161, 0xc04232a890f653fe}, {14897, 0xc04802688a594976},
			{17940, 0xc04a5cd1467545c3}, {12033, 0x4027fef292095567}, {7044, 0xc034f5fad6e14754}, {4064, 0x401df9949fa36e3e},
			{1781, 0xc039574bf12922cd}, {7914, 0x40112bea1b707a76}, {16443, 0xc0383433c039474e}, {6455, 0x402b67453e7e4d60},
			{13239, 0xc0430236c7e831e8}, {7281, 0xc027f51b2883787d}, {9609, 0xc03a303ebf7a8f08}, {1841, 0xc025371bc1818c84},
		}},
		{"zipf+drift", SensorOpts{Keys: 50, Skew: 1.5, Mean: 7, Stddev: 0.5, DriftPerHour: 8}, [64]pair{
			{1, 0x40326e2bf473e5a9}, {1, 0x40332035d49bc87d}, {1, 0x4033413b33a758a1}, {1, 0x4033ba86e15b96e1},
			{1, 0x40336f73ef06fde4}, {1, 0x40335db9d7448e7b}, {1, 0x403334ab48582e51}, {28, 0x4032f45093d2357e},
			{34, 0x40336daa26988310}, {1, 0x40326b2940928d66}, {1, 0x4032d28786de01d7}, {3, 0x4032b6f977667dcd},
			{6, 0x4032a04a64c95d4f}, {3, 0x4032ce43c932cb5b}, {6, 0x4032f422da36e25f}, {5, 0x4032a4f0673aa071},
			{10, 0x4033180454b4746c}, {1, 0x40336084a21b9663}, {2, 0x4033ad1d4f689dca}, {1, 0x40326fee36bf0a35},
			{2, 0x403374e24013fbf2}, {2, 0x40333140fc79bda8}, {29, 0x403216bdcc06886a}, {6, 0x4032055c3f940465},
			{3, 0x4033808bdcf03ffb}, {5, 0x4033423a0cad17df}, {1, 0x4032173f5c1ead23}, {1, 0x40334b31afeb4c80},
			{1, 0x40332f62807cea91}, {7, 0x40338e22774316f4}, {14, 0x4033433a78f00a3b}, {3, 0x4032745e583cd06a},
			{3, 0x4032cc53c7f132bf}, {1, 0x4032e227d0261647}, {1, 0x403413e3c4eacdd3}, {1, 0x40336c4d2689bc89},
			{6, 0x4032f73008cfea74}, {20, 0x40339fb99037d86c}, {1, 0x40327f2168db07b5}, {5, 0x4032cec5e514c439},
			{6, 0x40330f2e1343b8a3}, {3, 0x40336868fd786c2d}, {5, 0x4032ee6f5de13429}, {1, 0x4033bb109aa35b2e},
			{42, 0x4033251477d5623a}, {6, 0x40327da18c1d749f}, {3, 0x4032b9a184c1b8e6}, {7, 0x40333ecbd5061300},
			{1, 0x40328668ed2f3f29}, {1, 0x40333349b7233f01}, {1, 0x4032873788451a2d}, {1, 0x403258fb11b14e48},
			{1, 0x403246695507ba2c}, {2, 0x4033498f4d96c2cc}, {2, 0x4032c5fb064e76cb}, {1, 0x4033380e0f80eb1c},
			{1, 0x4032b4f8d453eeea}, {24, 0x40332bc3776b4fb6}, {5, 0x4032ba08478645e5}, {11, 0x403351e92a3b7364},
			{2, 0x4032834a72b68100}, {3, 0x4032ebb37bdc0765}, {1, 0x4032b31e40666fe1}, {1, 0x4032f1b28d18a2ca},
		}},
	} {
		g := NewSensorGen(rng.New(17), "A", c.opt)
		var b stream.Block
		g.FillBlock(&b, len(c.want), simtime.Time(90*time.Minute), 450*time.Millisecond)
		for i, w := range c.want {
			if got := (pair{b.IDs[i], math.Float64bits(b.Values[i])}); got != w {
				t.Fatalf("%s: event %d is (%d, %#x), pinned (%d, %#x)", c.name, i, got.id, got.value, w.id, w.value)
			}
		}
	}
}

// TestSensorKeysMatchSprintf: the keys NewSensorGen builds in one buffer are
// the strings fmt.Sprintf("%ssensor-%04d") gave — zero-padded to four digits,
// five and six digits unpadded — with and without a prefix, in ID order.
func TestSensorKeysMatchSprintf(t *testing.T) {
	const keys = 100_001
	for _, prefix := range []string{"", "NEU/"} {
		table := NewSensorGen(rng.New(1), "A", SensorOpts{Keys: keys, KeyPrefix: prefix}).Table()
		if table.Len() != keys {
			t.Fatalf("prefix %q: table holds %d keys, want %d", prefix, table.Len(), keys)
		}
		for k := 0; k < keys; k++ {
			if got, want := table.Key(k+1), fmt.Sprintf("%ssensor-%04d", prefix, k); got != want {
				t.Fatalf("prefix %q: key %d is %q, Sprintf gives %q", prefix, k, got, want)
			}
		}
	}
}
