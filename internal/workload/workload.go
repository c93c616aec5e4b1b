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
// formatted once, in order, into the key list the generator's own KeyTable
// is built from, so key k has ID k+1 and drawing allocates
// nothing. What the generator produces is a columnar stream.Block — KeyIDs and
// values, timestamps implicit — which table-aware aggregates fold without
// ever seeing a key string; AppendEvents materialises blocks into
// stream.Events for consumers that want the struct.
//
// Keys and values draw from separate streams: keys from the stream the
// generator was built from, values from a "values" stream split off it at
// construction. The key sequence — the only thing partial sizes, and with
// them bytes, cost and latency, depend on — is therefore independent of
// Mean, Stddev and of how values are sampled (rng's ziggurat
// normal; the polar one belongs to the world's weather).
//
// What depends only on the options — the key list and the Zipf alias table —
// is the generator's population, built once by NewSensorGen and shared
// read-only by every generator Sibling makes from it.
type SensorGen struct {
	r     *rng.Rand // key draws
	vr    *rng.Rand // value draws
	zipf  *rng.Zipf // over r and pop's alias table; nil draws keys uniformly
	pop   *population
	table *stream.KeyTable // over pop.keys, the generator's own
	site  cloud.SiteID
	// scratch is the block AppendEvents materialises events from.
	scratch stream.Block
}

// population is what the generators of one SensorOpts draw from: the key
// list and, for skewed keys, the alias table. Nothing writes it once built.
type population struct {
	opt  SensorOpts // defaults applied
	keys []string
	zipf *rng.Zipf // nil for uniform keys; generators draw through On
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
	// Distinct k format to distinct strings, so the key list is a table as it
	// stands, hashed by nobody, with key k at ID k+1: FillBlock computes IDs
	// instead of looking them up. The keys are substrings of one buffer, sized
	// by the longest of them: a roster's generators format a hundred thousand
	// keys at set-up, and fmt.Sprintf on each was most of that.
	p := &population{opt: opt, keys: make([]string, opt.Keys)}
	var all strings.Builder
	all.Grow(opt.Keys * (len(opt.KeyPrefix) + len("sensor-") + max(4, len(strconv.Itoa(opt.Keys-1)))))
	for k := range p.keys {
		start := all.Len()
		writeSensorKey(&all, opt.KeyPrefix, k)
		p.keys[k] = all.String()[start:]
	}
	if opt.Skew > 1 {
		p.zipf = rng.NewZipf(r, opt.Skew, 1, uint64(opt.Keys-1))
	}
	return p.gen(r, site)
}

// Sibling returns a generator for site that draws from r what
// NewSensorGen(r, site, opt) with g's options would, bit for bit, over g's
// key list and alias table instead of copies of them. Its table is its own,
// over the shared list, so a Lookup indexes no other generator's table.
func (g *SensorGen) Sibling(r *rng.Rand, site cloud.SiteID) *SensorGen {
	return g.pop.gen(r, site)
}

// gen builds a generator over p that draws keys from r and values from a
// stream split off r.
func (p *population) gen(r *rng.Rand, site cloud.SiteID) *SensorGen {
	g := &SensorGen{r: r, vr: r.Split("values"), pop: p, table: stream.NewKeyTableOf(p.keys), site: site}
	if p.zipf != nil {
		g.zipf = p.zipf.On(r)
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
func KeyUnion(gens []*SensorGen) (*stream.KeyTable, [][]int) {
	// A prefix's keys are its largest generator's. Sizing the lists first
	// matters: grown by appends, a 119 × 1 200-key union took 10 ms and 12 MB
	// to build, against 2.5 ms and 3.5 MB sized (2-vCPU Xeon, go1.24).
	size, union := make(map[string]int), 0
	for _, g := range gens {
		prefix, n := g.pop.opt.KeyPrefix, len(g.pop.keys)
		if have := size[prefix]; n > have {
			size[prefix], union = n, union+n-have
		}
	}
	keys := make([]string, 0, union)
	ids := make(map[string][]int, len(size)) // ids[p][k+1]: the union ID of prefix p's key k
	remaps := make([][]int, len(gens))
	for i, g := range gens {
		prefix, n := g.pop.opt.KeyPrefix, len(g.pop.keys)
		have := ids[prefix]
		if have == nil {
			have = make([]int, 1, size[prefix]+1)
		}
		for k := len(have) - 1; k < n; k++ {
			keys = append(keys, g.pop.keys[k])
			have = append(have, len(keys))
		}
		ids[prefix] = have
		remaps[i] = have[: n+1 : n+1]
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
		g.r.FillIntn(b.IDs, len(g.pop.keys), 1)
	}
	vals := b.Values
	g.vr.FillZigNorm(vals)
	mean, sd := g.pop.opt.Mean, g.pop.opt.Stddev
	for i, z := range vals {
		vals[i] = mean + sd*z
	}
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

// PerSiteBytes returns one site's volume.
func (p Partials) PerSiteBytes() int64 { return int64(p.Files) * p.FileBytes }

// Validate reports configuration errors.
func (p Partials) Validate() error {
	if len(p.Sites) == 0 || p.Files <= 0 || p.FileBytes <= 0 {
		return fmt.Errorf("workload: invalid partials %+v", p)
	}
	return nil
}
