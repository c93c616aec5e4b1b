// Package rng provides deterministic pseudo-random streams for the SAGE
// simulator. Every stochastic component (link variability, workload
// generation, probe noise) draws from its own named stream split off a root
// seed, so adding a new consumer never perturbs the draws seen by existing
// ones and experiments stay reproducible across runs and Go versions.
//
// The core generator is xoshiro256**, seeded through SplitMix64, both
// implemented here so the sequence is independent of math/rand internals.
//
// There are two standard-normal samplers and nothing selects between them:
// every caller is fixed in code. NormFloat64 (Marsaglia polar, and Normal,
// LogNormal and OU on top of it) draws the world and its weather — the
// generated topologies, link variability, probe noise, cross-traffic sizes —
// a thousand times a virtual second, and every golden table and benchmark
// bound pins that realisation, so its sequence must not move. ZigNormFloat64
// (ziggurat, a third of the cost) draws workload values, ten million times a
// wall second, where only the distribution is pinned. A change that is
// allowed to move the weather can migrate the remaining callers and delete
// the polar method with Rand.hasSpare / spare.
//
// The three draws the engine makes once per event — a Zipf key, a uniform
// key, a ziggurat normal — each have two forms. The per-draw methods
// (Zipf.Uint64, Rand.Intn, Rand.ZigNormFloat64) are the definitions: they say
// which variate a word of the stream becomes, and the distribution and
// stream-cost tests judge them. What runs is the block form of each
// (Zipf.Fill, Rand.FillIntn, Rand.FillZigNorm in fill.go), which steps the
// generator in registers for a whole column of a stream.Block and is pinned
// to its definition bit for bit, generator state included. Zipf.Uint64 and
// ZigNormFloat64 have no caller outside tests; Intn keeps the many it has
// away from the kernel.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator. It is not safe for
// concurrent use; split one stream per goroutine instead.
type Rand struct {
	// xoshiro256** state, as four fields rather than an array so that Uint64
	// fits the inlining budget.
	s0, s1, s2, s3 uint64
	// cached second normal variate from the polar method
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from seed via SplitMix64, which guarantees
// well-mixed state even for small or similar seeds.
func New(seed uint64) *Rand {
	var s [4]uint64
	sm := seed
	for i := range s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
	return &Rand{s0: s[0], s1: s[1], s2: s[2], s3: s[3]}
}

// Split derives an independent stream identified by name. Streams derived
// with distinct names from the same parent are statistically independent.
func (r *Rand) Split(name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(r.Uint64() ^ h.Sum64())
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**). The state
// is stepped in locals and stored once: under the race detector, which
// charges per memory access, that is a third off every draw in the suite. The
// fills go further and load and store the state once per block, which takes
// the kernel's draws off that per-access charge altogether.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, bits.RotateLeft64(s3, 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(errIntnRange)
	}
	return int(r.Uint64() % uint64(n))
}

// errIntnRange is what Intn and its block form FillIntn panic with.
const errIntnRange = "rng: Intn with non-positive n"

// NormFloat64 returns a standard normal variate (Marsaglia polar method). Its
// sequence is pinned (TestPolarNormalSequencePinned): see the package comment.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// ZigNormFloat64 returns a standard normal variate by the ziggurat method
// (Marsaglia–Tsang, 256 layers; tables in zigtable.go). One Uint64 decides an
// accepted draw: the low 8 bits pick the layer, bit 8 the sign and the top 53
// bits the position within the layer, so a value has the full float64
// fraction. 98.5 % of draws land in their layer's inner rectangle and return
// from here; the rest take zigFinish. The common case is kept straight-line
// on purpose: with the retry loop in this function a draw costs 4.0 ns, not
// 3.7.
func (r *Rand) ZigNormFloat64() float64 {
	u := r.Uint64()
	c := &zigCells[u%zigLayers]
	if j := u >> 11; j < c.k {
		return zigSigned(float64(int64(j))*c.w, u)
	}
	return r.zigFinish(u)
}

// zigSigned gives x the sign that bit 8 of u holds.
func zigSigned(x float64, u uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | u&(1<<8)<<55)
}

// zigFinish completes a draw whose word u fell outside its layer's inner
// rectangle. In a layer above the base the draw is in the wedge between the
// rectangle and the curve, and is accepted when it lies under exp(-x²/2)
// (zigUnder). In the base strip it is beyond zigR, and is replaced by a draw
// from the exact tail (Marsaglia: x = -ln(U)/R, accepted when
// -2·ln(U') >= x²). A rejected word is replaced by a fresh one, which may
// land anywhere.
func (r *Rand) zigFinish(u uint64) float64 {
	for {
		i, j := u%zigLayers, u>>11
		c := &zigCells[i]
		x := float64(int64(j)) * c.w
		switch {
		case j < c.k:
			return zigSigned(x, u)
		case i == 0:
			for {
				// 1 - Float64() is in (0, 1]: the logarithm is finite.
				x = -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					return zigSigned(zigR+x, u)
				}
			}
		case zigUnder(i, x, zigF[i]+r.Float64()*(zigF[i-1]-zigF[i])):
			return zigSigned(x, u)
		}
		u = r.Uint64()
	}
}

// zigMargin is how far a height must clear a bounding line for the line to
// decide it: orders of magnitude beyond the rounding of the lines, the tables
// and math.Exp, so a line decides only what the exact test decides alike.
const zigMargin = 1e-12

// zigUnder reports whether height y is under the curve at x, y < exp(-x²/2),
// for a wedge draw of layer i >= 1: x in [x[i-1], x[i]], y in [zigF[i],
// zigF[i-1]]. Most draws are clear of the curve, and lines through the
// layer's corners decide them without math.Exp (zigLines); the rest take the
// exact test.
func zigUnder(i uint64, x, y float64) bool {
	if under, ok := zigLines(i, x, y); ok {
		return under
	}
	return y < math.Exp(-0.5*x*x)
}

// zigLines decides y < exp(-x²/2) for a wedge draw of layer i against the
// chord through the layer's corners and the curve's tangents there (f'(x) =
// -x·f(x)), when y clears them by zigMargin; ok is false otherwise. Below
// x = 1 the curve is concave: it lies above its chord and below its tangents.
// Above 1 it is convex: below its chord and above its tangents. The layer
// that straddles 1 is neither, and decides nothing here. The corners are the
// table literals, so the lines depend on no platform function.
func zigLines(i uint64, x, y float64) (under, ok bool) {
	x0, x1 := 0.0, zigCells[i].w*(1<<53)
	if i > 1 {
		x0 = zigCells[i-1].w * (1 << 53)
	}
	f0, f1 := zigF[i-1], zigF[i]
	chord := f0 + (f1-f0)*(x-x0)/(x1-x0)
	t0, t1 := f0*(1-x0*(x-x0)), f1*(1-x1*(x-x1))
	switch {
	case x1 <= 1:
		if y < chord-zigMargin {
			return true, true
		}
		if y > min(t0, t1)+zigMargin {
			return false, true
		}
	case x0 >= 1:
		if y > chord+zigMargin {
			return false, true
		}
		if y < max(t0, t1)-zigMargin {
			return true, true
		}
	}
	return false, false
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponential variate with the given mean (= 1/rate).
func (r *Rand) Exp(mean float64) float64 { return mean * r.ExpFloat64() }

// LogNormal returns exp(Normal(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Zipf draws from a Zipf–Mandelbrot distribution over {0, ..., imax}:
// P(k) ∝ (v+k)^-q. The sampler is a Walker/Vose alias table built once from
// the exact pmf, so a draw is one Uint64, one 128-bit multiply and one table
// cell whatever the domain size. Construct once with NewZipf.
type Zipf struct {
	r     *Rand
	cells []aliasCell
}

// aliasCell is one column of the alias table: a draw landing in column k
// with fraction below keep returns k, otherwise alias.
type aliasCell struct {
	keep  uint64 // column k's own share of the column, scaled to 2^64
	alias uint64
}

// zipfMaxKeys bounds the domain: the table holds one 16-byte cell per key.
const zipfMaxKeys = 1 << 28

// NewZipf returns a Zipf generator over {0, ..., imax} with exponent q > 1
// and offset v >= 1. It draws nothing from r.
func NewZipf(r *Rand, q, v float64, imax uint64) *Zipf {
	if r == nil || q <= 1 || v < 1 {
		panic("rng: NewZipf requires r != nil, q > 1, v >= 1")
	}
	if imax >= zipfMaxKeys {
		panic("rng: NewZipf domain exceeds 2^28 keys")
	}
	n := int(imax) + 1
	// scaled[k] = n·P(k): the mass of key k in units of one column. Summing
	// from the tail adds the small terms first.
	scaled := make([]float64, n)
	var sum float64
	for k := n - 1; k >= 0; k-- {
		scaled[k] = math.Exp(-q * math.Log(v+float64(k)))
		sum += scaled[k]
	}
	norm := float64(n) / sum
	// Vose: pair every under-full column with an over-full donor. One index
	// array holds both worklists: work[:split] queues the under-full columns,
	// work[split:] stacks the over-full ones with the current donor on top.
	work := make([]int, n)
	split, top := 0, n
	for k := range scaled {
		scaled[k] *= norm
		if scaled[k] < 1 {
			work[split] = k
			split++
		} else {
			top--
			work[top] = k
		}
	}
	cells := make([]aliasCell, n)
	for k := range cells {
		// Columns the pairing never reaches are full up to rounding.
		cells[k] = aliasCell{keep: math.MaxUint64, alias: uint64(k)}
	}
	for s := 0; s < split && split < n; s++ {
		k, donor := work[s], work[split]
		cells[k] = aliasCell{keep: uint64(scaled[k] * (1 << 64)), alias: uint64(donor)}
		scaled[donor] -= 1 - scaled[k]
		if scaled[donor] < 1 {
			// The donor is under-full now: moving the boundary over its slot
			// makes it the last entry of the queue.
			split++
		}
	}
	return &Zipf{r: r, cells: cells}
}

// On returns a sampler that draws from r through z's alias table. The two
// share the table read-only, so one distribution is built once however many
// streams draw from it.
func (z *Zipf) On(r *Rand) *Zipf { return &Zipf{r: r, cells: z.cells} }

// Uint64 returns a Zipf-distributed value in [0, imax]. It consumes exactly
// one Uint64 of the underlying stream: the high half of u·n picks the
// column, the low half is the uniform fraction within it.
func (z *Zipf) Uint64() uint64 {
	col, frac := bits.Mul64(z.r.Uint64(), uint64(len(z.cells)))
	c := &z.cells[col]
	// Which side of keep a draw falls is close to a coin flip; loading both
	// candidates first lets the compiler select without a branch.
	k := c.alias
	if frac < c.keep {
		k = col
	}
	return k
}

// OU is an Ornstein–Uhlenbeck mean-reverting process, the variability model
// for simulated WAN link capacity: multi-tenant interference pushes the
// capacity away from its long-run mean, and reversion pulls it back, so
// samples show high variance with no trend — the regime that motivates
// robust sample integration in the monitor.
type OU struct {
	r *Rand
	// Mean is the long-run level the process reverts to.
	Mean float64
	// Theta is the reversion rate per second (higher = faster reversion).
	Theta float64
	// Sigma is the diffusion coefficient per sqrt(second).
	Sigma float64
	// X is the current value.
	X float64
	// last holds the two constants of Step for the (Theta, Sigma, dt) it was
	// last called with: a link is stepped once a tick with the same three for
	// a whole run, and they cost a math.Exp and a math.Sqrt.
	last ouStep
}

// ouStep is one discretization of an OU process: over dt seconds the
// displacement from the mean shrinks by decay and gains noise of standard
// deviation scale.
type ouStep struct{ theta, sigma, dt, decay, scale float64 }

// NewOU returns a process started at its mean.
func NewOU(r *Rand, mean, theta, sigma float64) *OU {
	return &OU{r: r, Mean: mean, Theta: theta, Sigma: sigma, X: mean}
}

// Step advances the process by dt seconds using the exact discretization of
// the OU SDE and returns the new value.
func (o *OU) Step(dt float64) float64 {
	if dt <= 0 {
		return o.X
	}
	if c := o.last; c.dt != dt || c.theta != o.Theta || c.sigma != o.Sigma {
		decay := math.Exp(-o.Theta * dt)
		variance := o.Sigma * o.Sigma / (2 * o.Theta) * (1 - decay*decay)
		o.last = ouStep{o.Theta, o.Sigma, dt, decay, math.Sqrt(variance)}
	}
	o.X = o.Mean + (o.X-o.Mean)*o.last.decay + o.last.scale*o.r.NormFloat64()
	return o.X
}
