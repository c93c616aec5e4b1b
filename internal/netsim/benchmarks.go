// Benchmark drivers for the netsim hot path, shared between the Go benchmark
// wrappers in netsim_bench_test.go and the `sagebench -perf` baseline mode.
// They live in a non-test file so the sagebench binary can run the exact same
// workloads through testing.Benchmark and record the results as the netsim/
// rows of BENCH.json (see internal/bench/perf.go).
package netsim

import (
	"fmt"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// benchSites is the number of sites in the benchmark full mesh.
const benchSites = 4

// benchFlowBytes is large enough that benchmark flows never complete within
// the simulated time a benchmark advances, so the concurrent flow count
// stays constant.
const benchFlowBytes = 1 << 43 // ~8.8 TB

// NewBenchNetwork builds a quiet (no glitches, negligible probe noise)
// full-mesh topology and starts nflows long-lived cross-site flows, one
// distinct sender node per flow so the aggregate-parallelism bookkeeping is
// exercised alongside the allocator.
func NewBenchNetwork(nflows int) (*simtime.Scheduler, *Network, []*Flow) {
	topo := cloud.NewTopology(1000, time.Millisecond)
	ids := make([]cloud.SiteID, benchSites)
	for i := range ids {
		ids[i] = cloud.SiteID(fmt.Sprintf("S%d", i))
		topo.AddSite(&cloud.Site{ID: ids[i]})
	}
	for i := range ids {
		for j := range ids {
			if i < j {
				topo.AddSymmetricLink(cloud.LinkSpec{
					From: ids[i], To: ids[j],
					BaseMBps: 100, RTT: 10 * time.Millisecond, Jitter: 1e-9,
				})
			}
		}
	}
	sched := simtime.New()
	net := New(sched, topo, rng.New(1), Options{GlitchMeanGap: -1, ProbeNoise: 1e-9})
	flows := make([]*Flow, nflows)
	for i := range flows {
		src := net.NewNode(ids[i%benchSites], cloud.Medium)
		dst := net.NewNode(ids[(i+1)%benchSites], cloud.Medium)
		flows[i] = net.StartFlow(src, dst, benchFlowBytes, FlowOpts{noActivationDelay: true}, nil)
	}
	sched.RunFor(time.Second)
	return sched, net, flows
}

// RunBenchmarkReallocate measures one full advance+reallocate pass over
// nflows concurrent flows, with virtual time moving so byte crediting is
// exercised too. Every link is marked dirty before each pass: with nothing
// dirty a pass re-rates nothing, and the rows would time a no-op.
func RunBenchmarkReallocate(b *testing.B, nflows int) {
	sched, net, _ := NewBenchNetwork(nflows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reallocateAll(sched, net)
	}
}

// reallocateAll advances a millisecond and runs one world-wide pass.
func reallocateAll(sched *simtime.Scheduler, net *Network) {
	sched.RunFor(time.Millisecond)
	for _, l := range net.linkList {
		net.markDirty(l.res)
	}
	net.reschedule()
}

// RunBenchmarkFlowChurn measures flow arrival/departure under load: each
// iteration cancels the oldest of nflows concurrent flows and starts a
// replacement, triggering two reallocation passes plus all start/finish
// bookkeeping.
func RunBenchmarkFlowChurn(b *testing.B, nflows int) {
	sched, net, flows := NewBenchNetwork(nflows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % nflows
		victim := flows[idx]
		net.CancelFlow(victim)
		flows[idx] = net.StartFlow(victim.Src, victim.Dst, benchFlowBytes,
			FlowOpts{noActivationDelay: true}, nil)
		sched.RunFor(time.Microsecond)
	}
}

// roughOptions are the netsim options of the end-to-end benchmark's raw_rough
// workload (benchmark/raw_rough.go): rough weather plus other tenants'
// cross-traffic on every link.
func roughOptions() Options {
	return Options{
		GlitchMeanGap: 3 * time.Minute, GlitchMeanDur: 90 * time.Second,
		GlitchDepthMin: 0.1, GlitchDepthMax: 0.4,
		CrossTrafficMeanGap: 2 * time.Minute,
	}
}

// Shape of the rough-world benchmark: raw_rough's generated world, and on it
// benchRoughSpokes spokes each shipping 1 MiB chunks to the hub of region 0
// over benchRoughLanes capped lanes (distinct VM pairs), a chunk restarting
// the moment the previous one lands. One measured span is benchRoughSpan of
// virtual time after a benchRoughWarmup that lets cross-traffic build up.
const (
	benchRoughSites, benchRoughRegions = 60, 6
	benchRoughSpokes, benchRoughLanes  = 9, 4
	benchRoughChunk                    = 1 << 20
	benchRoughWarmup                   = time.Minute
	benchRoughSpan                     = 2 * time.Minute
)

// NewBenchRoughWorld builds the rough world with its foreground lanes
// started. A lane keeps itself busy without allocating: the finished chunk's
// Flow goes back to the pool before the next chunk takes it out.
func NewBenchRoughWorld() (*simtime.Scheduler, *Network) {
	sched := simtime.New()
	net := New(sched, cloud.GenerateWorld(benchRoughSites, benchRoughRegions, 1), rng.New(1), roughOptions())
	opts := FlowOpts{CapMBps: cloud.Medium.NICMBps / 2}
	sinks := net.NewNodes(cloud.GeneratedHub(0), cloud.Medium, benchRoughLanes)
	for i := 0; i < benchRoughSpokes; i++ {
		srcs := net.NewNodes(cloud.GeneratedSiteID(benchRoughRegions+i), cloud.Medium, benchRoughLanes)
		for k, src := range srcs {
			dst := sinks[k]
			var done func(*Flow)
			start := func() { net.StartFlow(src, dst, benchRoughChunk, opts, done) }
			done = func(f *Flow) {
				net.ReleaseFlow(f)
				start()
			}
			start()
		}
	}
	return sched, net
}

// RunBenchmarkRoughWorld measures the component-scoped path where it earns
// its keep: ns per fired event (one op) on the rough world, where the typical
// event — a tenant flow starting or ending on one of 678 links, a glitch, a
// chunk landing — can change the rates of a handful of the ~200 active flows.
// The world is rebuilt, off the clock, whenever a span is used up, so the
// traffic mix does not depend on b.N. The foreground path allocates nothing;
// what is left is a tenant arrival's Flow and events, less than one
// allocation per fired event.
func RunBenchmarkRoughWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; {
		b.StopTimer()
		sched, _ := NewBenchRoughWorld()
		sched.RunFor(benchRoughWarmup)
		end := sched.Now() + benchRoughSpan
		b.StartTimer()
		for ; i < b.N; i++ {
			if at, ok := sched.NextAt(); !ok || at > end {
				break
			}
			sched.Step()
		}
	}
}
