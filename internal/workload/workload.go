// Package workload generates the synthetic inputs for SAGE experiments:
// sensor-style event streams with skewed key popularity and diurnal rate
// modulation, and the "scientific partials" bulk workload (many files of a
// fixed size from several sites toward one meta-reducer site) that stands in
// for the bio-informatics application of the original evaluation.
package workload

import (
	"fmt"
	"math"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
)

// SensorGen produces events with Zipf-skewed key popularity and normally
// distributed values — the shape of telemetry from a fleet of sensors where
// a few are chatty and most are quiet. The "sensor-%04d" key strings are
// formatted once at construction and interned into a KeyTable, so drawing
// an event allocates nothing: Next hands out the prebuilt string plus its
// integer KeyID, which table-aware aggregates use to index cells directly.
type SensorGen struct {
	r       *rng.Rand
	zipf    *rng.Zipf
	keys    int
	keyStrs []string // keyStrs[k] = "sensor-%04d" formatted once
	keyIDs  []int    // keyIDs[k] = interned ID in table
	table   *stream.KeyTable
	mean    float64
	sd      float64
	site    cloud.SiteID
	drift   float64
}

// SensorOpts configures a generator.
type SensorOpts struct {
	// Keys is the number of distinct sensors (default 100).
	Keys int
	// Skew is the Zipf exponent of key popularity, P(key k) ∝ (1+k)^-Skew.
	// Only Skew > 1 skews: the zero value and every Skew <= 1 draw keys
	// uniformly (there is no default exponent).
	Skew float64
	// Mean and Stddev shape the value distribution (defaults 20, 5).
	Mean, Stddev float64
	// DriftPerHour adds a slow linear trend to values, exercising
	// window-to-window change (default 0).
	DriftPerHour float64
	// KeyPrefix prefixes every generated key (default ""). Distinct
	// prefixes give sites disjoint key populations, so the global
	// distinct-key count scales with the number of sites — the million-key
	// regime of the scale experiments.
	KeyPrefix string
}

// NewSensorGen builds a generator for one site from its own random stream.
func NewSensorGen(r *rng.Rand, site cloud.SiteID, opt SensorOpts) *SensorGen {
	if opt.Keys <= 0 {
		opt.Keys = 100
	}
	if opt.Mean == 0 && opt.Stddev == 0 {
		opt.Mean, opt.Stddev = 20, 5
	}
	g := &SensorGen{
		r: r, keys: opt.Keys, mean: opt.Mean, sd: opt.Stddev,
		site: site, drift: opt.DriftPerHour,
		keyStrs: make([]string, opt.Keys),
		keyIDs:  make([]int, opt.Keys),
		table:   stream.NewKeyTable(),
	}
	for k := range g.keyStrs {
		g.keyStrs[k] = fmt.Sprintf("%ssensor-%04d", opt.KeyPrefix, k)
		g.keyIDs[k] = g.table.Intern(g.keyStrs[k])
	}
	if opt.Skew > 1 {
		g.zipf = rng.NewZipf(r, opt.Skew, 1, uint64(opt.Keys-1))
	}
	return g
}

// Table returns the generator's key table, for building dense aggregates
// over its events (e.g. stream.NewWindowAggDense).
func (g *SensorGen) Table() *stream.KeyTable { return g.table }

// Next draws one event stamped at the given virtual time.
func (g *SensorGen) Next(at simtime.Time) stream.Event {
	var e stream.Event
	g.nextInto(&e, at)
	return e
}

// nextInto draws one event directly into *e, so batch fills copy each event
// once instead of twice.
func (g *SensorGen) nextInto(e *stream.Event, at simtime.Time) {
	var k int
	if g.zipf != nil {
		k = int(g.zipf.Uint64())
	} else {
		k = g.r.Intn(g.keys)
	}
	mu := g.mean
	if g.drift != 0 {
		// Driftless generators skip the Duration→hours conversion; adding
		// drift*hours == 0 would not change mu, so values are identical.
		mu += g.drift * at.Hours()
	}
	e.Key = g.keyStrs[k]
	e.KeyID = g.keyIDs[k]
	e.Value = g.r.Normal(mu, g.sd)
	e.Time = at
	e.Site = g.site
}

// AppendEvents draws n events with timestamps spread uniformly over
// [from, from+span) in ascending order, appending them to dst and returning
// the extended slice. Hot callers pass buf[:0] to reuse one batch buffer
// across windows.
func (g *SensorGen) AppendEvents(dst []stream.Event, n int, from simtime.Time, span time.Duration) []stream.Event {
	if n <= 0 {
		return dst
	}
	if need := len(dst) + n; cap(dst) < need {
		grown := make([]stream.Event, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	step := span / time.Duration(n)
	at := from
	base := len(dst)
	dst = dst[:base+n]
	for i := 0; i < n; i++ {
		g.nextInto(&dst[base+i], at)
		at += step
	}
	return dst
}

// Events draws n events with timestamps spread uniformly over
// [from, from+span) in ascending order.
func (g *SensorGen) Events(n int, from simtime.Time, span time.Duration) []stream.Event {
	if n <= 0 {
		return nil
	}
	return g.AppendEvents(make([]stream.Event, 0, n), n, from, span)
}

// RateFunc maps virtual time to an event rate in events/second.
type RateFunc func(at simtime.Time) float64

// ConstantRate returns a flat rate.
func ConstantRate(eps float64) RateFunc {
	return func(simtime.Time) float64 { return eps }
}

// DiurnalRate modulates a base rate sinusoidally with the given relative
// amplitude and period — the day/night pattern of user-facing telemetry.
func DiurnalRate(base, amplitude float64, period time.Duration) RateFunc {
	if period <= 0 {
		panic("workload: diurnal period must be positive")
	}
	return func(at simtime.Time) float64 {
		phase := 2 * math.Pi * float64(at%simtime.Time(period)) / float64(period)
		r := base * (1 + amplitude*math.Sin(phase))
		if r < 0 {
			return 0
		}
		return r
	}
}

// EventCount returns the integer number of events a rate function yields
// over a window starting at 'from' (rate sampled at the window start —
// windows are short relative to rate drift).
func EventCount(rate RateFunc, from simtime.Time, width time.Duration) int {
	n := rate(from) * width.Seconds()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Partials describes the scientific bulk workload: every site holds Files
// partial-result files of FileBytes each that must reach the sink.
type Partials struct {
	Sites     []cloud.SiteID
	Files     int
	FileBytes int64
}

// TotalBytes returns the workload's total volume.
func (p Partials) TotalBytes() int64 {
	return int64(len(p.Sites)) * int64(p.Files) * p.FileBytes
}

// PerSiteBytes returns one site's volume.
func (p Partials) PerSiteBytes() int64 { return int64(p.Files) * p.FileBytes }

// Validate reports configuration errors.
func (p Partials) Validate() error {
	if len(p.Sites) == 0 || p.Files <= 0 || p.FileBytes <= 0 {
		return fmt.Errorf("workload: invalid partials %+v", p)
	}
	return nil
}
