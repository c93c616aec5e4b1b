// Package model implements SAGE's cost/time performance model — the
// "rarely coded" core of the reproduction. Given a monitored throughput
// estimate for a link and a node count, it predicts transfer completion time
// and monetary cost, and inverts those predictions to answer the scheduling
// questions the engine asks: how many nodes fit a budget, how many are
// needed for a deadline, and where the cost/time knee lies.
//
// # Time model
//
// A transfer of Size bytes over a link with estimated single-node throughput
// thr, parallelized over n nodes, completes in
//
//	Tt = Size / thr * 1 / speedup(n),   speedup(n) = min(1+(n-1)*Gain, MaxSpeedup)
//
// Gain < 1 captures diminishing returns of parallel WAN streams; MaxSpeedup
// caps aggregate parallelism (the provider's path diversity is finite).
//
// # Cost model
//
// The monetary cost of a transfer splits into the provider's egress charge
// and the opportunity cost of leased VM resources:
//
//	Cost = n * Tt_hours * PricePerHour * Intr  +  Size_GB * EgressPerGB
//
// Intr (intrusiveness) is the fraction of each VM the transfer is allowed to
// consume: a compute-heavy application tolerates 5%, an I/O-bound one 10% or
// more. Because Tt shrinks as n grows (up to MaxSpeedup), resource cost is
// nearly flat over the first few nodes and then climbs — producing the knee
// that experiment F5 locates.
package model

import (
	"math"
	"time"

	"sage/internal/cloud"
)

// Params are the calibration constants of the model.
type Params struct {
	// Gain is the marginal speedup per additional parallel node (0..1).
	Gain float64
	// MaxSpeedup caps the parallel speedup (matches the network's
	// aggregate parallelism ceiling).
	MaxSpeedup float64
	// Intr is the intrusiveness: the fraction of VM resources the data
	// system may use (0..1].
	Intr float64
	// Class is the VM class leased for transfer nodes.
	Class cloud.VMClass
	// EgressPerGB is the outbound-data price at the source site.
	EgressPerGB float64
	// SitesPerLane is the number of VMs one parallel lane engages: 2 for a
	// direct source->destination pair, 3 when routing through an
	// intermediate datacenter. The cost model charges every engaged VM.
	SitesPerLane float64
}

// Default returns the calibration used throughout the evaluation: gain 0.55,
// speedup cap 4 (the netsim AggMax), 10% intrusiveness, Small instances,
// $0.12/GB egress.
func Default() Params {
	return Params{Gain: 0.55, MaxSpeedup: 4, Intr: 0.10, Class: cloud.Small,
		EgressPerGB: 0.12, SitesPerLane: 2}
}

// Speedup returns the parallel speedup for n nodes.
func (p Params) Speedup(n int) float64 {
	if n < 1 {
		n = 1
	}
	return math.Min(1+float64(n-1)*p.Gain, p.MaxSpeedup)
}

// EffectiveThroughput returns the predicted aggregate throughput (MB/s) of n
// nodes over a link with single-node estimate thrMBps, also respecting the
// per-node NIC ceiling at the configured intrusiveness.
func (p Params) EffectiveThroughput(thrMBps float64, n int) float64 {
	if thrMBps <= 0 {
		return 0
	}
	agg := thrMBps * p.Speedup(n)
	nicCap := float64(n) * p.Class.NICMBps * p.Intr
	return math.Min(agg, nicCap)
}

// TransferTime predicts completion time for size bytes over a link with
// single-node throughput estimate thrMBps using n parallel nodes. It returns
// a very large duration when throughput is unusable.
func (p Params) TransferTime(size int64, thrMBps float64, n int) time.Duration {
	eff := p.EffectiveThroughput(thrMBps, n)
	if eff <= 0 || size <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(size) / (eff * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// ResourceCost returns the VM-lease component of a transfer's cost: n
// parallel lanes, each engaging SitesPerLane VMs for the transfer duration
// at the configured intrusiveness.
func (p Params) ResourceCost(tt time.Duration, n int) float64 {
	lane := p.SitesPerLane
	if lane < 1 {
		lane = 2
	}
	return float64(n) * lane * tt.Hours() * p.Class.PricePerHour * p.Intr
}

// EgressCost returns the provider egress charge for size bytes.
func (p Params) EgressCost(size int64) float64 {
	return p.EgressPerGB * float64(size) / (1 << 30)
}

// Cost predicts the total monetary cost of transferring size bytes in the
// predicted time with n nodes.
func (p Params) Cost(size int64, thrMBps float64, n int) float64 {
	tt := p.TransferTime(size, thrMBps, n)
	if tt == time.Duration(math.MaxInt64) {
		return math.Inf(1)
	}
	return p.ResourceCost(tt, n) + p.EgressCost(size)
}

// Conservative discounts a throughput estimate by z standard deviations —
// the risk-averse planning input: a scheduler sizing against the mean is
// late half the time, one sizing against mean − z·σ is late only when the
// environment is worse than its recent history suggests. The result is
// floored at 5% of the mean so a noisy link never becomes unplannable.
func Conservative(mean, stddev, z float64) float64 {
	v := mean - z*stddev
	if floor := 0.05 * mean; v < floor {
		return floor
	}
	return v
}

// Prediction bundles the model outputs for one candidate node count.
type Prediction struct {
	Nodes int
	Time  time.Duration
	Cost  float64
	MBps  float64
}

// Sweep evaluates the model for n = 1..nMax and returns the predictions.
func (p Params) Sweep(size int64, thrMBps float64, nMax int) []Prediction {
	out := make([]Prediction, 0, nMax)
	for n := 1; n <= nMax; n++ {
		out = append(out, Prediction{
			Nodes: n,
			Time:  p.TransferTime(size, thrMBps, n),
			Cost:  p.Cost(size, thrMBps, n),
			MBps:  p.EffectiveThroughput(thrMBps, n),
		})
	}
	return out
}

// NodesForBudget returns the largest node count in [1, nMax] whose predicted
// cost stays within budget, and whether any count fits. This is the paper's
// budget knob: spend up to the budget to minimize time.
func (p Params) NodesForBudget(size int64, thrMBps float64, budget float64, nMax int) (int, bool) {
	best, ok := 0, false
	for n := 1; n <= nMax; n++ {
		if p.Cost(size, thrMBps, n) <= budget {
			best, ok = n, true
		}
	}
	return best, ok
}

// NodesForDeadline returns the smallest node count in [1, nMax] whose
// predicted transfer time meets the deadline, and whether any count does.
func (p Params) NodesForDeadline(size int64, thrMBps float64, deadline time.Duration, nMax int) (int, bool) {
	for n := 1; n <= nMax; n++ {
		if p.TransferTime(size, thrMBps, n) <= deadline {
			return n, true
		}
	}
	return 0, false
}

// Knee returns the node count in [1, nMax] minimizing Cost * Time — the
// cost/time sweet spot experiment F5 reports.
func (p Params) Knee(size int64, thrMBps float64, nMax int) int {
	best, bestScore := 1, math.Inf(1)
	for _, pr := range p.Sweep(size, thrMBps, nMax) {
		score := pr.Cost * pr.Time.Seconds()
		if score < bestScore {
			best, bestScore = pr.Nodes, score
		}
	}
	return best
}

// FitGain estimates the Gain parameter from observed (nodes, duration) pairs
// of transfers of the same size over the same link, by least squares over
// the reciprocal model 1/T ∝ speedup(n). It returns the fitted gain clamped
// to [0, 1] and false when fewer than two distinct node counts are present.
//
// This is the calibration path: the engine periodically refits Gain from its
// own transfer log instead of trusting a constant.
type Observation struct {
	Nodes    int
	Duration time.Duration
}

// FitGain fits Params.Gain from observations by ordinary least squares on
// the reciprocal model: T(n) = C / (1 + (n-1)·g) implies 1/T is linear in
// (n-1) with intercept 1/C and slope g/C, so g is the slope/intercept ratio.
// No n=1 baseline is required — any two distinct node counts suffice.
func FitGain(obs []Observation) (float64, bool) {
	var sx, sy, sxx, sxy float64
	n := 0
	distinct := map[int]bool{}
	for _, o := range obs {
		if o.Nodes < 1 || o.Duration <= 0 {
			continue
		}
		distinct[o.Nodes] = true
		x := float64(o.Nodes - 1)
		y := 1 / o.Duration.Seconds()
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if len(distinct) < 2 || n < 2 {
		return 0, false
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn
	if intercept <= 0 {
		return 0, false
	}
	g := slope / intercept
	if g < 0 {
		g = 0
	}
	if g > 1 {
		g = 1
	}
	return g, true
}
