// Package monitor implements SAGE's environment-awareness layer: it probes
// the simulated cloud continuously, keeps per-link sample histories, and
// summarizes them with online estimators that feed the cost/time model.
//
// Three sample-integration strategies are provided, matching the families
// compared in the evaluation:
//
//   - Last-sample ("Monitor"): the newest measurement is the estimate. Cheap,
//     common in deployed systems, and maximally sensitive to variance.
//   - LSI (linear sample integration): the estimate is the running arithmetic
//     mean; every sample is trusted equally, forever.
//   - WSI (weighted sample integration): each sample is weighted by how
//     plausible it is under the current estimate (a Gaussian factor) and by
//     how rare samples are (a recency/rarity factor); the weighted value is
//     folded into a sliding exponential history of length h. Outliers in a
//     stable regime are damped; when the regime truly shifts, the growing
//     variance widens the acceptance window and the estimator converges to
//     the new level.
package monitor

import (
	"math"
	"time"

	"sage/internal/simtime"
)

// Sample is one measurement of a metric at a point in virtual time.
type Sample struct {
	Value float64
	At    simtime.Time
}

// Estimator consumes samples and maintains a running estimate of the metric
// level and its variability.
type Estimator interface {
	// Observe folds one sample into the estimate.
	Observe(Sample)
	// Mean returns the current estimate (0 before any sample).
	Mean() float64
	// Stddev returns the current variability estimate.
	Stddev() float64
}

// LastSample is the trivial estimator: trust the newest measurement.
type LastSample struct {
	value float64
	prev  float64
	n     int
}

// NewLastSample returns an empty last-sample estimator.
func NewLastSample() *LastSample { return &LastSample{} }

// Observe implements Estimator.
func (e *LastSample) Observe(s Sample) {
	e.prev = e.value
	e.value = s.Value
	e.n++
}

// Mean implements Estimator.
func (e *LastSample) Mean() float64 { return e.value }

// Stddev returns the absolute delta between the last two samples — the only
// variability signal this strategy has.
func (e *LastSample) Stddev() float64 {
	if e.n < 2 {
		return 0
	}
	return math.Abs(e.value - e.prev)
}

// LSI is linear sample integration: a running arithmetic mean and variance
// (Welford's algorithm) over all samples seen.
type LSI struct {
	n    int
	mean float64
	m2   float64
}

// NewLSI returns an empty linear estimator.
func NewLSI() *LSI { return &LSI{} }

// Observe implements Estimator.
func (e *LSI) Observe(s Sample) {
	e.n++
	d := s.Value - e.mean
	e.mean += d / float64(e.n)
	e.m2 += d * (s.Value - e.mean)
}

// Mean implements Estimator.
func (e *LSI) Mean() float64 { return e.mean }

// Stddev implements Estimator.
func (e *LSI) Stddev() float64 {
	if e.n < 2 {
		return 0
	}
	return math.Sqrt(e.m2 / float64(e.n))
}

// WSI is weighted sample integration, SAGE's estimator. Each sample S gets a
// trust weight
//
//	w = (exp(-(mu-S)^2 / (2 sigma^2)) + rarity) / 2,   rarity = min(1, dt/T)
//
// combining (a) a Gaussian plausibility factor — samples far from the mean in
// a stable environment are probably glitches and are trusted less — and (b) a
// rarity factor — samples arriving after a long gap carry more information.
// The weighted sample is folded into exponential histories of length h:
//
//	mu'    = ((h-1) mu    + (1-w) mu    + w S  ) / h
//	gamma' = ((h-1) gamma + w gamma + (1-w) S^2) / h,   sigma = sqrt(gamma - mu^2)
//
// Note gamma's weights are deliberately mirrored: a distrusted sample barely
// moves the mean but inflates the variance estimate, so a genuine regime
// change widens sigma until subsequent samples become trusted — the
// self-healing property the tracking experiment (F3) demonstrates.
type WSI struct {
	// H is the history window length in samples (default 12).
	H float64
	// T is the reference inter-sample interval for the rarity term
	// (default 1 minute).
	T time.Duration

	n      int
	mu     float64
	gamma  float64
	lastAt simtime.Time
}

// NewWSI returns a WSI estimator with history length h and rarity reference
// interval t. Non-positive arguments take the defaults (12, 1 minute).
func NewWSI(h float64, t time.Duration) *WSI {
	if h <= 1 {
		h = 12
	}
	if t <= 0 {
		t = time.Minute
	}
	return &WSI{H: h, T: t}
}

// Observe implements Estimator.
func (e *WSI) Observe(s Sample) {
	if e.n == 0 {
		e.mu = s.Value
		e.gamma = s.Value * s.Value
		e.n = 1
		e.lastAt = s.At
		return
	}
	sigma := e.Stddev()
	var gauss float64
	switch {
	case sigma > 0:
		d := e.mu - s.Value
		gauss = math.Exp(-(d * d) / (2 * sigma * sigma))
	case s.Value == e.mu:
		gauss = 1
	default:
		gauss = 0
	}
	dt := (s.At - e.lastAt).Seconds()
	rarity := dt / e.T.Seconds()
	if rarity > 1 {
		rarity = 1
	}
	if rarity < 0 {
		rarity = 0
	}
	w := (gauss + rarity) / 2
	const eps = 1e-3 // never discard a sample entirely
	if w < eps {
		w = eps
	}
	if w > 1 {
		w = 1
	}
	h := e.H
	e.mu = ((h-1)*e.mu + (1-w)*e.mu + w*s.Value) / h
	e.gamma = ((h-1)*e.gamma + w*e.gamma + (1-w)*s.Value*s.Value) / h
	e.n++
	e.lastAt = s.At
}

// Mean implements Estimator.
func (e *WSI) Mean() float64 { return e.mu }

// Stddev implements Estimator.
func (e *WSI) Stddev() float64 {
	v := e.gamma - e.mu*e.mu
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Factory builds fresh estimators; the monitoring service keeps one per
// tracked link.
type Factory func() Estimator

// DefaultFactory builds the production configuration: WSI with a 12-sample
// window and 1-minute reference interval.
func DefaultFactory() Estimator { return NewWSI(12, time.Minute) }
