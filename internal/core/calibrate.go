package core

import (
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
)

// Calibrator refits the model's parallel-gain parameter from the engine's
// own transfer log, replacing the hand-set constant with observed behaviour.
// The paper-level motivation: the speedup law's slope differs per link and
// per tenancy epoch; a scheduler that keeps using a stale gain either
// under-provisions (missing deadlines) or over-provisions (wasting money).
type Calibrator struct {
	// MinObservations gates refitting (default 6).
	MinObservations int
	// Window keeps only recent observations (default 30 min of virtual
	// time).
	Window time.Duration

	obs map[cloud.SiteID][]timedObs // keyed by source site
}

type timedObs struct {
	at    time.Duration
	nodes int
	dur   time.Duration
}

// NewCalibrator returns an empty calibrator.
func NewCalibrator() *Calibrator {
	return &Calibrator{MinObservations: 6, Window: 30 * time.Minute}
}

// Record adds one completed transfer's (lanes, duration) pair for a source
// site at the given virtual time. Durations are normalized per byte by the
// caller supplying same-size transfers, or by using RecordNormalized.
func (c *Calibrator) Record(site cloud.SiteID, at time.Duration, lanes int, dur time.Duration) {
	if c.obs == nil {
		c.obs = make(map[cloud.SiteID][]timedObs)
	}
	c.obs[site] = append(c.obs[site], timedObs{at: at, nodes: lanes, dur: dur})
}

// RecordNormalized records a transfer of arbitrary size by scaling its
// duration to a 1 MB reference, so transfers of different sizes are
// comparable in one fit.
func (c *Calibrator) RecordNormalized(site cloud.SiteID, at time.Duration, lanes int, dur time.Duration, bytes int64) {
	if bytes <= 0 {
		return
	}
	scaled := time.Duration(float64(dur) * 1e6 / float64(bytes))
	c.Record(site, at, lanes, scaled)
}

// Gain fits the parallel-gain parameter for one site from observations
// within the window ending at now. ok is false when data is insufficient.
func (c *Calibrator) Gain(site cloud.SiteID, now time.Duration) (float64, bool) {
	all := c.obs[site]
	var recent []model.Observation
	for _, o := range all {
		if now-o.at <= c.Window {
			recent = append(recent, model.Observation{Nodes: o.nodes, Duration: o.dur})
		}
	}
	if len(recent) < c.MinObservations {
		return 0, false
	}
	return model.FitGain(recent)
}
