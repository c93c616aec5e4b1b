package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream produced only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("link/A")
	b := root.Split("link/B")
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams with different names produced identical first draw")
	}
	// Same name from identically-positioned parents must agree.
	r1, r2 := New(7), New(7)
	s1, s2 := r1.Split("x"), r2.Split("x")
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same-name splits from same parent state diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(4)
		if v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("exp mean = %v, want ~4", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal non-positive: %v", v)
		}
	}
}

// zipfPMF returns the analytic Zipf–Mandelbrot pmf (v+k)^-q / Z over
// {0, ..., imax} — the reference the sampler is judged against.
func zipfPMF(q, v float64, imax int) []float64 {
	p := make([]float64, imax+1)
	var z float64
	for k := imax; k >= 0; k-- {
		p[k] = math.Pow(v+float64(k), -q)
		z += p[k]
	}
	for k := range p {
		p[k] /= z
	}
	return p
}

// TestZipfGoodnessOfFit is a χ² test of the sampler against the analytic pmf.
// With df degrees of freedom χ² has mean df and σ = sqrt(2·df); a correct
// sampler lands within ±2σ on these fixed seeds, and the bound is df + 5σ.
// The rejection-inversion sampler this one replaced (its acceptance constant
// was 2 − hinv(…) where the 0-based method needs 1 − hinv(…)) scores
// df + 16σ at the first point.
func TestZipfGoodnessOfFit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		q, v  float64
		imax  int
		draws int
		// binOf maps a key to its χ² bin; nil means one bin per key.
		binOf func(k uint64) int
		bins  int
	}{
		{name: "q1.3_n1200", q: 1.3, v: 1, imax: 1199, draws: 8_000_000},
		{name: "q1.5_n1000", q: 1.5, v: 1, imax: 999, draws: 2_000_000},
		// 2^20 keys: keys 0–63 keep a bin each, the rest share one bin per
		// power of two, so every bin expects thousands of draws.
		{name: "q1.3_n2^20_binned", q: 1.3, v: 1, imax: 1<<20 - 1, draws: 1_000_000,
			binOf: func(k uint64) int {
				if k < 64 {
					return int(k)
				}
				return 64 + bits.Len64(k) - 7
			},
			bins: 64 + 20 - 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			binOf, bins := tc.binOf, tc.bins
			if binOf == nil {
				binOf, bins = func(k uint64) int { return int(k) }, tc.imax+1
			}
			want := make([]float64, bins)
			for k, p := range zipfPMF(tc.q, tc.v, tc.imax) {
				want[binOf(uint64(k))] += p * float64(tc.draws)
			}
			z := NewZipf(New(29), tc.q, tc.v, uint64(tc.imax))
			got := make([]int, bins)
			for i := 0; i < tc.draws; i++ {
				k := z.Uint64()
				if k > uint64(tc.imax) {
					t.Fatalf("Zipf out of range: %d > %d", k, tc.imax)
				}
				got[binOf(k)]++
			}
			var chi2 float64
			for b, w := range want {
				if w < 20 {
					t.Fatalf("bin %d expects %.1f draws: too few for a χ² test", b, w)
				}
				d := float64(got[b]) - w
				chi2 += d * d / w
			}
			df := float64(bins - 1)
			sigma := math.Sqrt(2 * df)
			t.Logf("χ² = %.0f on %d degrees of freedom (%+.1fσ)", chi2, bins-1, (chi2-df)/sigma)
			if chi2 > df+5*sigma {
				t.Fatalf("χ² = %.0f exceeds df + 5σ = %.0f: sampler does not follow (v+k)^-q", chi2, df+5*sigma)
			}
		})
	}
}

// TestZipfOneUint64PerDraw pins the stream position: construction draws
// nothing and every variate consumes exactly one Uint64, so a consumer that
// interleaves Zipf keys with other draws from the same Rand stays aligned
// with a twin that skips one word per key.
func TestZipfOneUint64PerDraw(t *testing.T) {
	r, twin := New(31), New(31)
	z := NewZipf(r, 1.3, 1, 1199)
	for i := 0; i < 1000; i++ {
		z.Uint64()
		twin.Uint64()
		if got, want := r.Uint64(), twin.Uint64(); got != want {
			t.Fatalf("after %d draws the streams diverge: %#x vs %#x", i+1, got, want)
		}
	}
}

// TestZipfOnSharesTheTable: a sampler On another stream reads the alias
// cells it was made from, not a copy, and draws what a table built afresh
// over that stream draws, generator state included.
func TestZipfOnSharesTheTable(t *testing.T) {
	z := NewZipf(New(1), 1.3, 1, 1199)
	on, fresh := z.On(New(9)), NewZipf(New(9), 1.3, 1, 1199)
	if &on.cells[0] != &z.cells[0] || len(on.cells) != len(z.cells) {
		t.Fatal("On copied the alias table")
	}
	for i := 0; i < 10_000; i++ {
		if got, want := on.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d: On gives %d, a fresh table %d", i, got, want)
		}
	}
	if *on.r != *fresh.r {
		t.Fatal("On and a fresh table left their streams in different states")
	}
}

func TestZipfSingleKey(t *testing.T) {
	z := NewZipf(New(1), 2, 1, 0)
	for i := 0; i < 100; i++ {
		if k := z.Uint64(); k != 0 {
			t.Fatalf("one-key domain drew %d", k)
		}
	}
}

func TestZipfZeroAllocs(t *testing.T) {
	z := NewZipf(New(1), 1.3, 1, 1199)
	if a := testing.AllocsPerRun(1000, func() { z.Uint64() }); a != 0 {
		t.Fatalf("Zipf.Uint64 allocates %v per draw", a)
	}
}

func TestZipfInvalidArgsPanic(t *testing.T) {
	for name, build := range map[string]func(){
		"nil source": func() { NewZipf(nil, 1.3, 1, 10) },
		"q<=1":       func() { NewZipf(New(1), 1.0, 1, 10) },
		"v<1":        func() { NewZipf(New(1), 1.3, 0.5, 10) },
		"huge imax":  func() { NewZipf(New(1), 1.3, 1, 1<<40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf with %s should panic", name)
				}
			}()
			build()
		}()
	}
}

// BenchmarkKeyDraw measures the two key draws at the engine's shapes:
// agg_wide's Zipf domain and resil_recover's uniform one.
func BenchmarkKeyDraw(b *testing.B) {
	b.Run("zipf", func(b *testing.B) { RunBenchmarkKeyDraw(b, 1200, 1.3) })
	b.Run("uniform", func(b *testing.B) { RunBenchmarkKeyDraw(b, 20_000, 0) })
}

func BenchmarkNewZipf(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sinkU64 += NewZipf(r, 1.3, 1, 1199).Uint64()
	}
}

var sinkU64 uint64

func TestOUMeanReversion(t *testing.T) {
	r := New(31)
	ou := NewOU(r, 100, 0.5, 5)
	ou.X = 200 // displaced far above the mean
	// After many reversion timescales the process must be near the mean.
	sum := 0.0
	const steps = 20000
	for i := 0; i < steps; i++ {
		sum += ou.Step(1)
	}
	mean := sum / steps
	if math.Abs(mean-100) > 3 {
		t.Fatalf("OU long-run mean = %v, want ~100", mean)
	}
}

func TestOUStationaryVariance(t *testing.T) {
	r := New(37)
	theta, sigma := 0.5, 5.0
	ou := NewOU(r, 0, theta, sigma)
	// Warm up, then measure variance; stationary variance = sigma^2/(2 theta).
	for i := 0; i < 1000; i++ {
		ou.Step(1)
	}
	sum, sumSq, n := 0.0, 0.0, 50000
	for i := 0; i < n; i++ {
		v := ou.Step(1)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	want := sigma * sigma / (2 * theta)
	if math.Abs(variance-want)/want > 0.15 {
		t.Fatalf("OU stationary variance = %v, want ~%v", variance, want)
	}
}

func TestOUZeroStepNoChange(t *testing.T) {
	ou := NewOU(New(41), 10, 1, 1)
	x := ou.X
	if got := ou.Step(0); got != x {
		t.Fatalf("Step(0) changed value: %v -> %v", x, got)
	}
}

// TestOUStepSequenceOverChangingDt: Step keeps exp(-θ·dt) and the noise scale
// for the last (θ, σ, dt) it saw; the sequence must be the one the formula
// gives when both are evaluated on every step — bit for bit, over repeated,
// changing and zero dt and over θ and σ changed under a running process.
func TestOUStepSequenceOverChangingDt(t *testing.T) {
	ou, twin := NewOU(New(73), 1, 0.2, 0.15), New(73)
	x := ou.X
	dts := []float64{1, 1, 1, 0.25, 0.25, 1, 0, 3.5, 1e-3, 1, 1}
	for i := 0; i < 3000; i++ {
		switch i {
		case 1000:
			ou.Theta = 0.7
		case 2000:
			ou.Sigma = 0.4
		}
		dt := dts[i%len(dts)]
		if dt > 0 {
			decay := math.Exp(-ou.Theta * dt)
			variance := ou.Sigma * ou.Sigma / (2 * ou.Theta) * (1 - decay*decay)
			x = ou.Mean + (x-ou.Mean)*decay + math.Sqrt(variance)*twin.NormFloat64()
		}
		if got := ou.Step(dt); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("step %d (dt %v): X = %x, the formula evaluated afresh gives %x", i, dt, got, x)
		}
	}
}

// Property: Intn stays in range for arbitrary positive n and any seed.
func TestPropertyIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting with the same name twice in sequence yields different
// streams (parent state advances), but never an identical stream to the
// parent's next draws.
func TestPropertySplitAdvancesParent(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		a := r.Split("s")
		b := r.Split("s")
		return a.Uint64() != b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
