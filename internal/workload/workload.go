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
	"strings"
	"sync/atomic"
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
// read-only by every generator Sibling makes from it. The alias table depends
// on the key count and skew alone, and NewSensorGen also shares the one it
// built last with the next build of that shape (see lastAlias).
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
	keys stream.KeyList
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
	// instead of looking them up.
	p := &population{opt: opt, keys: sensorKeys(opt.KeyPrefix, opt.Keys)}
	if opt.Skew > 1 {
		p.zipf = aliasFor(r, opt.Keys, opt.Skew)
	}
	return p.gen(r, site)
}

// lastAlias is the Zipf alias table NewSensorGen built last, with the shape
// it was built for. A world's sources mostly share one shape — agg_wide's 119
// all ask for 1 200 keys at skew 1.3 — and a table costs an Exp and a Log per
// key, so a build of the shape the slot holds draws through its cells instead
// of building them again. One slot, not a map: it keeps at most one table
// alive beyond the generators that hold it, whatever shapes a long-lived
// process sees.
var lastAlias atomic.Pointer[aliasTable]

// aliasTable is a built table and its shape. Nothing writes either after the
// build, and nothing draws from zipf itself: generators draw through On.
type aliasTable struct {
	keys int
	skew float64
	zipf *rng.Zipf
}

// aliasFor returns the table of the Zipf law with exponent skew over keys
// keys, building it over r unless the slot holds it. NewZipf draws nothing
// while building, so the table does not depend on r, and builds racing on
// one shape make the same cells whichever of them the slot keeps.
func aliasFor(r *rng.Rand, keys int, skew float64) *rng.Zipf {
	if t := lastAlias.Load(); t != nil && t.keys == keys && t.skew == skew {
		return t.zipf
	}
	t := &aliasTable{keys: keys, skew: skew, zipf: rng.NewZipf(r, skew, 1, uint64(keys-1))}
	lastAlias.Store(t)
	return t.zipf
}

// sensorKeys returns the keys fmt.Sprintf("%ssensor-%04d", prefix, k)
// formats for k in [0, n), in order, as one text of exactly their total length
// and the offsets that cut it. A roster's generators make a hundred thousand
// keys at set-up, so no key is formatted: the digits count up in place like
// an odometer, and each key is one copy of the running text and one offset.
func sensorKeys(prefix string, n int) stream.KeyList {
	head := len(prefix) + len("sensor-")
	size := n * (head + 4)
	for p := 10_000; p < n; p *= 10 {
		size += n - p // every key from p on has one digit more
	}
	if size > math.MaxUint32 {
		panic(fmt.Sprintf("workload: %d keys of prefix %q are %d bytes, past the 4 GiB a key list holds", n, prefix, size))
	}
	var all strings.Builder
	all.Grow(size)
	ends := make([]uint32, 1, n+1)
	key := make([]byte, 0, 64) // on the stack unless the prefix is long
	key = append(append(append(key, prefix...), "sensor-"...), "0000"...)
	for range n {
		all.Write(key)
		ends = append(ends, uint32(all.Len()))
		i := len(key) - 1
		for ; i >= head && key[i] == '9'; i-- {
			key[i] = '0'
		}
		if i < head { // 9…9 rolls over to 10…0
			key[head] = '1'
			key = append(key, '0')
		} else {
			key[i]++
		}
	}
	return stream.NewKeyList(all.String(), ends)
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
	g := &SensorGen{r: r, vr: r.Split("values"), pop: p, table: stream.NewKeyTable(p.keys), site: site}
	if p.zipf != nil {
		g.zipf = p.zipf.On(r)
	}
	return g
}

// Table returns the generator's key table, for building dense aggregates
// over its events (e.g. stream.NewWindowAggDense).
func (g *SensorGen) Table() *stream.KeyTable { return g.table }

// KeyUnion returns the table of every key the generators draw, with the IDs
// interning their tables in gens order would assign, and for each generator
// the spans from its table's IDs to the union's, as
// stream.KeyedAgg.MergeMapped takes them. No key is hashed or copied, and
// nothing is allocated per key: generators with one KeyPrefix draw nested
// key lists, and different prefixes disjoint ones — a key is prefix +
// "sensor-" + digits, and "sensor-" cannot overlap itself — so the keys a
// generator adds to the union are one slice of its own list, and the union
// is a table over those slices. A generator's keys map to the union in one
// span per stretch of union IDs they occupy: one, unless another prefix's
// keys came between two generators that grew its prefix.
func KeyUnion(gens []*SensorGen) (*stream.KeyTable, [][]stream.Span) {
	runs := make([]stream.KeyList, 0, len(gens))
	placed := make(map[string][]stream.Span) // a prefix's keys, placed in the union so far
	spans := make([][]stream.Span, len(gens))
	union := 0
	for i, g := range gens {
		prefix, keys := g.pop.opt.KeyPrefix, g.pop.keys
		have := placed[prefix]
		k := 0 // the prefix's keys the union holds
		if len(have) > 0 {
			k = have[len(have)-1].From + have[len(have)-1].N - 1
		}
		if n := keys.Len(); k < n {
			runs = append(runs, keys.Slice(k, n))
			if last := len(have) - 1; last >= 0 && have[last].To+have[last].N == union+1 {
				// The prefix's last keys are the union's last: grow the span,
				// in a copy, since earlier generators' spans share its cells.
				have = slices.Clone(have)
				have[last].N += n - k
			} else {
				have = append(have, stream.Span{From: k + 1, To: union + 1, N: n - k})
			}
			union += n - k
			placed[prefix] = have
		}
		spans[i] = spansUpTo(have, keys.Len())
	}
	return stream.NewKeyTable(runs...), spans
}

// spansUpTo returns the spans of a prefix's placed keys that cover its
// first n keys, the last one cut at key n: have itself when it covers
// exactly n keys.
func spansUpTo(have []stream.Span, n int) []stream.Span {
	r := 0
	for r < len(have) && have[r].From <= n {
		r++
	}
	out := have[:r:r]
	if r > 0 && out[r-1].From+out[r-1].N-1 > n {
		out = slices.Clone(out)
		out[r-1].N = n - out[r-1].From + 1
	}
	return out
}

// FillBlock draws n events into b, event i stamped from + i·step, reusing
// b's columns when they are large enough and replacing them at exactly n
// when not (never grown past n: a stage's block stays one block). It is the one draw loop: every
// other way of getting events out of the generator goes through it, so a
// window drawn in blocks that start at multiples of step is the window drawn
// at once. Each column is one of rng's block draws, which step the generator
// in registers for the whole column (keys and values come from separate
// streams, so the order between them is free); the standard normals are
// scaled in place afterwards.
func (g *SensorGen) FillBlock(b *stream.Block, n int, from simtime.Time, step time.Duration) {
	n = max(n, 0)
	b.Table, b.Site, b.From, b.Step = g.table, g.site, from, step
	if cap(b.IDs) < n {
		b.IDs = make([]int32, n)
	}
	if cap(b.Values) < n {
		b.Values = make([]float64, n)
	}
	b.IDs, b.Values = b.IDs[:n], b.Values[:n]
	if g.zipf != nil {
		g.zipf.Fill(b.IDs, 1)
	} else {
		g.r.FillIntn(b.IDs, g.pop.keys.Len(), 1)
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
