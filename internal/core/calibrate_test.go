package core

import (
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

func TestCalibratorFitsGain(t *testing.T) {
	c := NewCalibrator()
	truth := model.Params{Gain: 0.6, MaxSpeedup: 100, Intr: 1, Class: cloud.XLarge}
	now := time.Hour
	for n := 1; n <= 4; n++ {
		for rep := 0; rep < 2; rep++ {
			c.Record("NEU", now, n, truth.TransferTime(100e6, 10, n))
		}
	}
	g, ok := c.Gain("NEU", now)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(g-0.6) > 0.05 {
		t.Fatalf("fitted gain = %v, want ~0.6", g)
	}
}

func TestCalibratorNeedsEnoughData(t *testing.T) {
	c := NewCalibrator()
	c.Record("NEU", 0, 1, time.Second)
	if _, ok := c.Gain("NEU", 0); ok {
		t.Fatal("one observation should not fit")
	}
	if _, ok := c.Gain("XXX", 0); ok {
		t.Fatal("unknown site should not fit")
	}
}

func TestCalibratorWindowExpiry(t *testing.T) {
	c := NewCalibrator()
	truth := model.Params{Gain: 0.5, MaxSpeedup: 100, Intr: 1, Class: cloud.XLarge}
	for n := 1; n <= 4; n++ {
		for rep := 0; rep < 2; rep++ {
			c.Record("NEU", time.Minute, n, truth.TransferTime(100e6, 10, n))
		}
	}
	if _, ok := c.Gain("NEU", time.Minute); !ok {
		t.Fatal("fresh observations should fit")
	}
	// Two hours later the window has passed.
	if _, ok := c.Gain("NEU", 2*time.Hour); ok {
		t.Fatal("stale observations should not fit")
	}
}

func TestCalibratorRecordNormalized(t *testing.T) {
	c := NewCalibrator()
	// Two transfers at different sizes but the same rate must normalize to
	// the same per-MB duration.
	c.RecordNormalized("A", 0, 1, 10*time.Second, 100e6)
	c.RecordNormalized("A", 0, 1, 20*time.Second, 200e6)
	a, b := c.obs["A"][0].dur, c.obs["A"][1].dur
	if a != b {
		t.Fatalf("normalized durations differ: %v vs %v", a, b)
	}
	c.RecordNormalized("A", 0, 1, time.Second, 0) // ignored
	if len(c.obs["A"]) != 2 {
		t.Fatal("zero-byte observation should be dropped")
	}
}

func TestEngineGainForFallsBack(t *testing.T) {
	e := quietEngine(31)
	if g := e.GainFor(cloud.NorthEU); g != e.Params.Gain {
		t.Fatalf("GainFor without data = %v, want static %v", g, e.Params.Gain)
	}
}

func TestDeadlineModeMeetsDeadline(t *testing.T) {
	e := quietEngine(32)
	job := JobSpec{
		Sources:           core999Sources(),
		Sink:              cloud.NorthUS,
		Window:            30 * time.Second,
		Agg:               stream.Mean,
		ShipRaw:           true, // move enough bytes that lanes matter
		Strategy:          transfer.EnvAware,
		Intr:              1,
		DeadlinePerWindow: 10 * time.Second,
	}
	rep, err := e.Run(job, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows == 0 {
		t.Fatal("no windows completed")
	}
	for _, l := range rep.Latencies {
		if l > 15*time.Second { // deadline + slack for model error
			t.Fatalf("window latency %v blows the 10s deadline", l)
		}
	}
}

// core999Sources returns a single high-rate source (helper for the deadline
// test).
func core999Sources() []SourceSpec {
	return []SourceSpec{{Site: cloud.NorthEU, Rate: workload.ConstantRate(3000)}}
}

func TestDeadlineCheaperThanFixedMaxLanes(t *testing.T) {
	// Deadline mode should use fewer nodes than always-max when the
	// deadline is loose.
	run := func(deadline time.Duration, lanes int) *Report {
		e := quietEngine(33)
		job := JobSpec{
			Sources:  core999Sources(),
			Sink:     cloud.NorthUS,
			Window:   30 * time.Second,
			Agg:      stream.Mean,
			ShipRaw:  true,
			Strategy: transfer.EnvAware,
			Intr:     1,
			Lanes:    lanes,
		}
		job.DeadlinePerWindow = deadline
		rep, err := e.Run(job, 3*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	loose := run(2*time.Minute, 0)
	maxed := func() *Report {
		e := quietEngine(33)
		rep, err := e.Run(JobSpec{
			Sources:  core999Sources(),
			Sink:     cloud.NorthUS,
			Window:   30 * time.Second,
			Agg:      stream.Mean,
			ShipRaw:  true,
			Strategy: transfer.EnvAware,
			Intr:     1,
			Lanes:    10,
		}, 3*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	if loose.TotalCost > maxed.TotalCost {
		t.Fatalf("loose deadline cost %v should not exceed max-lanes cost %v",
			loose.TotalCost, maxed.TotalCost)
	}
}

func TestBudgetAndDeadlineMutuallyExclusive(t *testing.T) {
	e := quietEngine(34)
	_, err := e.Run(JobSpec{
		Sources:           core999Sources(),
		Sink:              cloud.NorthUS,
		Window:            30 * time.Second,
		Agg:               stream.Mean,
		BudgetPerWindow:   1,
		DeadlinePerWindow: time.Second,
	}, time.Minute)
	if err == nil {
		t.Fatal("expected mutual-exclusion error")
	}
}

func TestCalibrationConvergesDuringJob(t *testing.T) {
	e := quietEngine(35)
	job := JobSpec{
		Sources:           core999Sources(),
		Sink:              cloud.NorthUS,
		Window:            30 * time.Second,
		Agg:               stream.Mean,
		ShipRaw:           true,
		Strategy:          transfer.EnvAware,
		Intr:              1,
		DeadlinePerWindow: 12 * time.Second,
		Calibrate:         true,
	}
	rep, err := e.Run(job, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows == 0 {
		t.Fatal("no windows completed")
	}
	// After many windows with varying lane counts the calibrator may or
	// may not have enough node-count diversity; the invariant is that the
	// engine keeps functioning and GainFor returns something sane.
	g := e.GainFor(cloud.NorthEU)
	if g < 0 || g > 1 {
		t.Fatalf("calibrated gain %v out of range", g)
	}
}
