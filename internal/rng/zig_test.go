package rng

import (
	"math"
	"testing"
)

// TestPolarNormalSequencePinned pins the polar NormFloat64 bit for bit: the
// generated worlds, the link weather, the probe noise and the cross-traffic
// sizes draw from it, and every golden table and benchmark bound hangs on
// that realisation. The literals were recorded at the commit before the
// ziggurat sampler was added; they also pin xoshiro256** and its seeding.
func TestPolarNormalSequencePinned(t *testing.T) {
	want := [8]uint64{
		0xbfe64c9c74fbad5e, 0x3fe8788eb46b959d, 0x3fff680264bfd749, 0xbfe8891e1e9ae848,
		0xbff0e4c131c9df8c, 0x3fc796b5bf9a44f5, 0x4000bc8c2c59b0e6, 0xbff523e62cb52699,
	}
	r := New(13)
	for i, w := range want {
		if got := math.Float64bits(r.NormFloat64()); got != w {
			t.Fatalf("polar variate %d of New(13) is %#x, pinned %#x", i, got, w)
		}
	}
}

// zigClosedForm recomputes the ziggurat tables the way zigtable.go's literals
// were generated: the common area V from zigR, then the layer edges from the
// base up by x[i-1] = sqrt(-2·ln(V/x[i] + f(x[i]))), with x[0] = 0.
func zigClosedForm() (cells [zigLayers]zigCell, fx [zigLayers]float64) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	v := zigR*f(zigR) + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	const m = 1 << 53
	q := v / f(zigR)
	cells[0] = zigCell{k: uint64(zigR / q * m), w: q / m}
	fx[0] = 1
	x := zigR
	for i := zigLayers - 1; i >= 1; i-- {
		inner := 0.0
		if i > 1 {
			inner = math.Sqrt(-2 * math.Log(v/x+f(x)))
		}
		cells[i] = zigCell{k: uint64(inner / x * m), w: x / m}
		fx[i] = f(x)
		x = inner
	}
	return cells, fx
}

// TestZigguratTablesMatchClosedForm: the committed literals are the closed
// form to 1 ulp (to the bit on amd64, where they were generated), the layers
// have equal areas, and the top layer closes the stack at f(0) = 1.
func TestZigguratTablesMatchClosedForm(t *testing.T) {
	within1ulp := func(a, b float64) bool {
		return a == b || math.Nextafter(a, b) == b
	}
	cells, fx := zigClosedForm()
	for i := range cells {
		if d := int64(cells[i].k) - int64(zigCells[i].k); d < -1 || d > 1 {
			t.Errorf("layer %d: k literal %#x, closed form %#x", i, zigCells[i].k, cells[i].k)
		}
		if !within1ulp(cells[i].w, zigCells[i].w) {
			t.Errorf("layer %d: w literal %x, closed form %x", i, zigCells[i].w, cells[i].w)
		}
		if !within1ulp(fx[i], zigF[i]) {
			t.Errorf("layer %d: f literal %x, closed form %x", i, zigF[i], fx[i])
		}
	}
	const m = 1 << 53
	v := zigCells[0].w * m * zigF[zigLayers-1] // q·f(R)
	for i := 1; i < zigLayers; i++ {
		if area := zigCells[i].w * m * (zigF[i-1] - zigF[i]); math.Abs(area/v-1) > 1e-12 {
			t.Errorf("layer %d has area %v, the base strip %v", i, area, v)
		}
	}
	if zigCells[1].k != 0 {
		t.Errorf("top layer has an inner rectangle (k = %#x): every draw there must take the wedge test", zigCells[1].k)
	}
	if got := zigCells[zigLayers-1].w * m; got != zigR {
		t.Errorf("lowest rectangle ends at %v, zigR is %v", got, zigR)
	}
}

// TestZigguratGoodnessOfFit judges the sampler by distribution, as
// TestZipfGoodnessOfFit does the key draw: a χ² over equiprobable bins of the
// exact normal CDF (bound df + 5σ), the two-sided tail mass beyond the
// ziggurat's base edge — everything out there comes from the tail branch —
// and beyond ±4 against erfc within binomial error, the sign, and the
// wedges: layer tops are where a wrong wedge test shows, so the bins are
// narrow enough (1/400) to separate them from the rectangles.
func TestZigguratGoodnessOfFit(t *testing.T) {
	const (
		draws = 4_000_000
		bins  = 400
	)
	r := New(43)
	var got [bins]int
	var beyondR, beyond4, positive int
	for i := 0; i < draws; i++ {
		x := r.ZigNormFloat64()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("draw %d is %v", i, x)
		}
		// Φ(x) = erfc(-x/√2)/2, exact in both tails.
		got[min(int(0.5*math.Erfc(-x/math.Sqrt2)*bins), bins-1)]++
		if math.Abs(x) > zigR {
			beyondR++
		}
		if math.Abs(x) > 4 {
			beyond4++
		}
		if !math.Signbit(x) {
			positive++
		}
	}
	var chi2 float64
	want := float64(draws) / bins
	for _, g := range got {
		d := float64(g) - want
		chi2 += d * d / want
	}
	df := float64(bins - 1)
	sigma := math.Sqrt(2 * df)
	t.Logf("χ² = %.0f on %d degrees of freedom (%+.1fσ)", chi2, bins-1, (chi2-df)/sigma)
	if chi2 > df+5*sigma {
		t.Fatalf("χ² = %.0f exceeds df + 5σ = %.0f: sampler does not follow the normal law", chi2, df+5*sigma)
	}
	for _, c := range []struct {
		name string
		got  int
		p    float64
	}{
		{"|x| > R", beyondR, math.Erfc(zigR / math.Sqrt2)},
		{"|x| > 4", beyond4, math.Erfc(4 / math.Sqrt2)},
		{"x >= 0", positive, 0.5},
	} {
		mean := c.p * draws
		sd := math.Sqrt(mean * (1 - c.p))
		t.Logf("%s: %d draws, expected %.0f ± %.0f", c.name, c.got, mean, sd)
		if math.Abs(float64(c.got)-mean) > 5*sd {
			t.Fatalf("%s: %d of %d draws, expected %.0f ± %.0f", c.name, c.got, draws, mean, sd)
		}
	}
}

// TestZigguratWordsPerVariate pins the stream cost: an accepted draw is one
// Uint64, and wedge tests, tail draws and rejections together add under 5 %.
// A twin stepped word by word until it reaches the sampler's state counts
// them.
func TestZigguratWordsPerVariate(t *testing.T) {
	const draws = 200_000
	r, twin := New(47), New(47)
	for i := 0; i < draws; i++ {
		r.ZigNormFloat64()
	}
	words := 0
	for *twin != *r {
		twin.Uint64()
		if words++; words > 2*draws {
			t.Fatalf("twin has not met the sampler's state after %d words", words)
		}
	}
	t.Logf("%.4f words per variate", float64(words)/draws)
	if words < draws || float64(words) > 1.05*draws {
		t.Fatalf("%d variates consumed %d words; want between 1 and 1.05 each", draws, words)
	}
}

func TestZigguratZeroAllocs(t *testing.T) {
	r := New(1)
	if a := testing.AllocsPerRun(100_000, func() { benchSink += r.ZigNormFloat64() }); a != 0 {
		t.Fatalf("ZigNormFloat64 allocates %v per draw", a)
	}
}

// The two normal samplers side by side; BENCH.json records both
// (stream/NormFloat64/polar and /ziggurat).
// TestZigLinesAgreeWithExp: the lines of zigLines decide a wedge draw only
// the way the exact test y < exp(-x²/2) decides it, and decide most of them.
// The draws are the sampler's own — words that land in a wedge, heights from
// the next word — so the decided share is the one the sampler sees. Beside
// them, every layer is probed at heights a hair either side of the curve,
// where no line may decide against the exact test.
func TestZigLinesAgreeWithExp(t *testing.T) {
	r := New(29)
	wedge, decided := 0, 0
	for n := 0; n < 20_000_000; n++ {
		u := r.Uint64()
		i, j := u%zigLayers, u>>11
		if i == 0 || j < zigCells[i].k {
			continue
		}
		x := float64(int64(j)) * zigCells[i].w
		y := zigF[i] + r.Float64()*(zigF[i-1]-zigF[i])
		wedge++
		if under, ok := zigLines(i, x, y); ok {
			decided++
			if exact := y < math.Exp(-0.5*x*x); under != exact {
				t.Fatalf("layer %d, x = %v, y = %v: the lines say under = %v, exp says %v", i, x, y, under, exact)
			}
		}
	}
	if share := float64(decided) / float64(wedge); wedge < 100_000 || share < 0.8 {
		t.Fatalf("the lines decided %d of %d wedge draws (%.1f%%), want at least 80%% of at least 100 000",
			decided, wedge, 100*share)
	}
	t.Logf("the lines decided %d of %d wedge draws (%.1f%%)", decided, wedge, 100*float64(decided)/float64(wedge))
	for i := uint64(1); i < zigLayers; i++ {
		for _, p := range []float64{0, 0.001, 0.25, 0.5, 0.75, 0.999, 1} {
			x := (float64(zigCells[i].k) + p*float64(1<<53-zigCells[i].k)) * zigCells[i].w
			f := math.Exp(-0.5 * x * x)
			for _, y := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 2), f - 2e-12, f + 2e-12, f * (1 - 1e-9), f * (1 + 1e-9)} {
				if got, want := zigUnder(i, x, y), y < f; got != want {
					t.Fatalf("layer %d, x = %v, y = %v (curve %v): zigUnder = %v, exp says %v", i, x, y, f, got, want)
				}
			}
		}
	}
}

// FuzzZigWedge: for any word and any height, zigUnder is the exact test.
// The word u picks a layer and a position in its wedge as a sampler draw
// does (layer 0 is the tail, and folds onto layer 1); v picks the height, in
// the layer's range or, when its low bit is set, within 2^-30 of the curve.
func FuzzZigWedge(f *testing.F) {
	for _, u := range []uint64{0, 1, 2, 37, 38, 128, 200, 254, 255, 1<<63 | 90, math.MaxUint64} {
		for _, v := range []uint64{0, 1, 1 << 40, 1<<40 | 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
			f.Add(u, v)
		}
	}
	f.Fuzz(func(t *testing.T, u, v uint64) {
		i := max(u%zigLayers, 1)
		k := zigCells[i].k
		j := k + (u>>11)%(1<<53-k)
		x := float64(int64(j)) * zigCells[i].w
		curve := math.Exp(-0.5 * x * x)
		frac := float64(v>>11) / (1 << 53)
		y := zigF[i] + frac*(zigF[i-1]-zigF[i])
		if v&1 == 1 {
			y = curve + (frac-0.5)*0x1p-29
		}
		if got, want := zigUnder(i, x, y), y < curve; got != want {
			t.Fatalf("layer %d, x = %v, y = %v (curve %v): zigUnder = %v, exp says %v", i, x, y, curve, got, want)
		}
	})
}

func BenchmarkNormFloat64(b *testing.B)    { RunBenchmarkNormFloat64(b) }
func BenchmarkZigNormFloat64(b *testing.B) { RunBenchmarkZigNormFloat64(b) }
