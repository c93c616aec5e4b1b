package monitor

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sage/internal/simtime"
)

func feed(e Estimator, values []float64, gap time.Duration) {
	at := simtime.Time(0)
	for _, v := range values {
		at += gap
		e.Observe(Sample{Value: v, At: at})
	}
}

func TestLastSample(t *testing.T) {
	e := NewLastSample()
	if e.Mean() != 0 || e.Stddev() != 0 {
		t.Fatal("empty estimator should be zero")
	}
	feed(e, []float64{10, 20, 5}, time.Second)
	if e.Mean() != 5 {
		t.Fatalf("Mean = %v, want last sample 5", e.Mean())
	}
	if e.Stddev() != 15 {
		t.Fatalf("Stddev = %v, want |5-20| = 15", e.Stddev())
	}
}

func TestLSIMeanAndStddev(t *testing.T) {
	e := NewLSI()
	feed(e, []float64{2, 4, 6, 8}, time.Second)
	if e.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", e.Mean())
	}
	want := math.Sqrt(5) // population stddev of {2,4,6,8}
	if math.Abs(e.Stddev()-want) > 1e-9 {
		t.Fatalf("Stddev = %v, want %v", e.Stddev(), want)
	}
}

func TestWSIFirstSample(t *testing.T) {
	e := NewWSI(12, time.Minute)
	e.Observe(Sample{Value: 42, At: time.Second})
	if e.Mean() != 42 {
		t.Fatalf("first sample should set mean, got %v", e.Mean())
	}
	if e.Stddev() != 0 {
		t.Fatalf("single sample stddev = %v, want 0", e.Stddev())
	}
}

func TestWSIConvergesOnStableSignal(t *testing.T) {
	e := NewWSI(12, time.Minute)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 10
	}
	feed(e, vals, 30*time.Second)
	if math.Abs(e.Mean()-10) > 0.01 {
		t.Fatalf("stable signal mean = %v, want 10", e.Mean())
	}
}

func TestWSIDampsOutliers(t *testing.T) {
	// A stable signal with one wild glitch: WSI must move less than LSI
	// restricted to the same window, and far less than Last-sample.
	wsi := NewWSI(12, time.Minute)
	last := NewLastSample()
	signal := make([]float64, 60)
	for i := range signal {
		signal[i] = 10 + 0.2*math.Sin(float64(i))
	}
	signal = append(signal, 100) // glitch
	feed(wsi, signal, 30*time.Second)
	feed(last, signal, 30*time.Second)
	if math.Abs(wsi.Mean()-10) > 3 {
		t.Fatalf("WSI jumped to %v on one outlier", wsi.Mean())
	}
	if math.Abs(last.Mean()-100) > 1e-9 {
		t.Fatalf("Last-sample should chase the outlier, got %v", last.Mean())
	}
}

func TestWSIAdaptsToRegimeChange(t *testing.T) {
	// Sustained level shift: the estimator must converge to the new level
	// (self-healing via variance growth), unlike a one-shot outlier.
	e := NewWSI(12, time.Minute)
	var signal []float64
	for i := 0; i < 60; i++ {
		signal = append(signal, 10)
	}
	for i := 0; i < 120; i++ {
		signal = append(signal, 30)
	}
	feed(e, signal, 30*time.Second)
	if math.Abs(e.Mean()-30) > 3 {
		t.Fatalf("WSI failed to adapt to sustained change: mean %v, want ~30", e.Mean())
	}
}

func TestWSITracksBetterThanLastSampleOnNoisySignal(t *testing.T) {
	// Noisy stationary signal: mean absolute estimation error of WSI must
	// beat Last-sample (this is the headline of experiment F3).
	wsi := NewWSI(12, time.Minute)
	last := NewLastSample()
	lsi := NewLSI()
	truth := 10.0
	var errWSI, errLast, errLSI float64
	n := 0
	at := simtime.Time(0)
	// Deterministic noisy signal with occasional spikes.
	for i := 0; i < 500; i++ {
		at += 30 * time.Second
		v := truth + 2*math.Sin(float64(i)*0.7) + 1.5*math.Cos(float64(i)*2.3)
		if i%37 == 0 {
			v *= 2.5 // spike
		}
		s := Sample{Value: v, At: at}
		wsi.Observe(s)
		last.Observe(s)
		lsi.Observe(s)
		if i > 20 {
			errWSI += math.Abs(wsi.Mean() - truth)
			errLast += math.Abs(last.Mean() - truth)
			errLSI += math.Abs(lsi.Mean() - truth)
			n++
		}
	}
	if errWSI >= errLast {
		t.Fatalf("WSI error %v should beat Last-sample %v", errWSI/float64(n), errLast/float64(n))
	}
}

func TestWSIRarityIncreasesTrust(t *testing.T) {
	// Two estimators see the same outlier-ish sample; the one that waited
	// longer must move further toward it.
	frequent := NewWSI(12, time.Minute)
	rare := NewWSI(12, time.Minute)
	for i := 0; i < 20; i++ {
		s := Sample{Value: 10, At: simtime.Time(i) * time.Second}
		frequent.Observe(s)
		rare.Observe(s)
	}
	frequent.Observe(Sample{Value: 20, At: 20*time.Second + time.Second})
	rare.Observe(Sample{Value: 20, At: 20*time.Second + 10*time.Minute})
	if rare.Mean() <= frequent.Mean() {
		t.Fatalf("rare sample (mean %v) should be trusted more than frequent (mean %v)",
			rare.Mean(), frequent.Mean())
	}
}

func TestWSIDefaults(t *testing.T) {
	e := NewWSI(0, 0)
	if e.H != 12 || e.T != time.Minute {
		t.Fatalf("defaults = %v,%v", e.H, e.T)
	}
}

// Property: WSI mean always stays within the observed sample range.
func TestPropertyWSIMeanWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewWSI(8, time.Minute)
		lo, hi := math.Inf(1), math.Inf(-1)
		at := simtime.Time(0)
		for _, u := range raw {
			v := 1 + float64(u%1000)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			at += 10 * time.Second
			e.Observe(Sample{Value: v, At: at})
		}
		return e.Mean() >= lo-1e-9 && e.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance estimate is never negative (gamma - mu^2 clamping).
func TestPropertyWSIStddevNonNegative(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewWSI(8, time.Minute)
		at := simtime.Time(0)
		for _, u := range raw {
			at += time.Second
			e.Observe(Sample{Value: float64(u), At: at})
			if e.Stddev() < 0 || math.IsNaN(e.Stddev()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
