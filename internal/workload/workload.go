// Package workload generates the synthetic inputs for SAGE experiments:
// sensor-style event streams with skewed key popularity and diurnal rate
// modulation, and the "scientific partials" bulk workload (many files of a
// fixed size from several sites toward one meta-reducer site) that stands in
// for the bio-informatics application of the original evaluation.
package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
)

// SensorGen produces events with Zipf-skewed key popularity and normally
// distributed values — the shape of telemetry from a fleet of sensors where
// a few are chatty and most are quiet. The "sensor-%04d" key strings are
// formatted once at construction, in order, into the key list of the
// generator's own KeyTable, so key k has ID k+1 and drawing allocates
// nothing. What the generator produces is a columnar stream.Block — KeyIDs and
// values, timestamps implicit — which table-aware aggregates fold without
// ever seeing a key string; Next, Events and AppendEvents materialise blocks
// into stream.Events for consumers that want the struct.
//
// Keys and values draw from separate streams: keys from the stream the
// generator was built from, values from a "values" stream split off it at
// construction. The key sequence — the only thing partial sizes, and with
// them bytes, cost and latency, depend on — is therefore independent of
// Mean, Stddev, DriftPerHour and of how values are sampled (rng's ziggurat
// normal; the polar one belongs to the world's weather).
type SensorGen struct {
	r      *rng.Rand // key draws
	vr     *rng.Rand // value draws
	zipf   *rng.Zipf // over r; nil draws keys uniformly
	keys   int
	prefix string // SensorOpts.KeyPrefix
	table  *stream.KeyTable
	mean   float64
	sd     float64
	site   cloud.SiteID
	drift  float64
	// scratch is the block Next and AppendEvents materialise events from.
	scratch stream.Block
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
		r: r, vr: r.Split("values"), keys: opt.Keys, mean: opt.Mean, sd: opt.Stddev,
		site: site, drift: opt.DriftPerHour, prefix: opt.KeyPrefix,
	}
	// Distinct k format to distinct strings, so the key list is a table as it
	// stands, hashed by nobody, with key k at ID k+1: FillBlock computes IDs
	// instead of looking them up. The keys are substrings of one buffer, sized
	// by the longest of them: a roster's generators format a hundred thousand
	// keys at set-up, and fmt.Sprintf on each was most of that.
	var all strings.Builder
	all.Grow(opt.Keys * (len(opt.KeyPrefix) + len("sensor-") + max(4, len(strconv.Itoa(opt.Keys-1)))))
	keys := make([]string, opt.Keys)
	for k := range keys {
		start := all.Len()
		writeSensorKey(&all, opt.KeyPrefix, k)
		keys[k] = all.String()[start:]
	}
	g.table = stream.NewKeyTableOf(keys)
	if opt.Skew > 1 {
		g.zipf = rng.NewZipf(r, opt.Skew, 1, uint64(opt.Keys-1))
	}
	return g
}

// writeSensorKey writes key k as fmt.Sprintf("%ssensor-%04d", prefix, k)
// formats it.
func writeSensorKey(b *strings.Builder, prefix string, k int) {
	b.WriteString(prefix)
	b.WriteString("sensor-")
	for p := 1000; p > k && p > 1; p /= 10 {
		b.WriteByte('0')
	}
	var digits [20]byte
	b.Write(strconv.AppendInt(digits[:0], int64(k), 10))
}

// Table returns the generator's key table, for building dense aggregates
// over its events (e.g. stream.NewWindowAggDense).
func (g *SensorGen) Table() *stream.KeyTable { return g.table }

// KeyUnion returns the table of every key the generators draw, with the IDs
// interning their tables in gens order would assign, and for each generator
// the remap from its table's IDs to the union's (remaps[i][0] is 0), as
// stream.KeyedAgg.MergeMapped takes it. No key is hashed: generators with one
// KeyPrefix draw nested key lists, and different prefixes disjoint ones — a
// key is prefix + "sensor-" + digits, and "sensor-" cannot overlap itself.
// Keys interned into a generator's table after construction are not included.
func KeyUnion(gens []*SensorGen) (*stream.KeyTable, [][]int) {
	// A prefix's keys are its largest generator's. Sizing the lists first
	// matters: grown by appends, a 119 × 1 200-key union took 10 ms and 12 MB
	// to build, against 2.5 ms and 3.5 MB sized (2-vCPU Xeon, go1.24).
	size, union := make(map[string]int), 0
	for _, g := range gens {
		if n := size[g.prefix]; g.keys > n {
			size[g.prefix], union = g.keys, union+g.keys-n
		}
	}
	keys := make([]string, 0, union)
	ids := make(map[string][]int, len(size)) // ids[p][k+1]: the union ID of prefix p's key k
	remaps := make([][]int, len(gens))
	for i, g := range gens {
		have := ids[g.prefix]
		if have == nil {
			have = make([]int, 1, size[g.prefix]+1)
		}
		for k := len(have) - 1; k < g.keys; k++ {
			keys = append(keys, g.table.Key(k+1))
			have = append(have, len(keys))
		}
		ids[g.prefix] = have
		remaps[i] = have[: g.keys+1 : g.keys+1]
	}
	return stream.NewKeyTableOf(keys), remaps
}

// FillBlock draws n events into b, event i stamped from + i·step, reusing
// b's columns when they are large enough. It is the one draw loop: every
// other way of getting events out of the generator goes through it, so a
// window drawn in blocks that start at multiples of step is the window drawn
// at once. Each column is one of rng's block draws, which step the generator
// in registers for the whole column (keys and values come from separate
// streams, so the order between them is free); the standard normals are
// scaled in place afterwards.
func (g *SensorGen) FillBlock(b *stream.Block, n int, from simtime.Time, step time.Duration) {
	n = max(n, 0)
	b.Table, b.Site, b.From, b.Step = g.table, g.site, from, step
	b.IDs = slices.Grow(b.IDs[:0], n)[:n]
	b.Values = slices.Grow(b.Values[:0], n)[:n]
	if g.zipf != nil {
		g.zipf.Fill(b.IDs, 1)
	} else {
		g.r.FillIntn(b.IDs, g.keys, 1)
	}
	vals := b.Values
	g.vr.FillZigNorm(vals)
	mean, sd := g.mean, g.sd
	if g.drift == 0 {
		for i, z := range vals {
			vals[i] = mean + sd*z
		}
		return
	}
	drift, at := g.drift, from
	for i, z := range vals {
		vals[i] = mean + drift*at.Hours() + sd*z
		at += step
	}
}

// Next draws one event stamped at the given virtual time.
func (g *SensorGen) Next(at simtime.Time) stream.Event {
	g.FillBlock(&g.scratch, 1, at, 0)
	return g.scratch.Event(0)
}

// appendChunk bounds the scratch block AppendEvents draws through, so
// regenerating a whole window costs one small block, not a second copy of it.
const appendChunk = 1024

// AppendEvents draws n events with timestamps spread uniformly over
// [from, from+span) in ascending order, appending them to dst and returning
// the extended slice. Callers that regenerate windows pass buf[:0] to reuse
// one buffer across them.
func (g *SensorGen) AppendEvents(dst []stream.Event, n int, from simtime.Time, span time.Duration) []stream.Event {
	if n <= 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	step := span / time.Duration(n)
	for i0 := 0; i0 < n; i0 += appendChunk {
		g.FillBlock(&g.scratch, min(appendChunk, n-i0), from+simtime.Time(i0)*step, step)
		dst = g.scratch.AppendEvents(dst)
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
