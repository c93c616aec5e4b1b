package transfer

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// benchRig is the deterministic 4-site diamond used by the transfer
// benchmarks: the same quiet world as the unit-test rig (no glitches, no
// cross traffic), with a monitor so the executor's per-chunk feedback path is
// exercised.
type benchRig struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	mgr   *Manager

	// done / onDone are hoisted so the measured loop doesn't allocate a
	// fresh completion closure per transfer.
	done   bool
	onDone func(Result)
}

func newBenchRig() *benchRig {
	sched := simtime.New()
	topo := cloud.NewTopology(250, 2*time.Millisecond)
	for _, id := range []cloud.SiteID{"A", "B", "C", "D"} {
		topo.AddSite(&cloud.Site{ID: id, Region: "T", EgressPerGB: 0.12})
	}
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "B", BaseMBps: 10, RTT: ms(20), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "B", To: "D", BaseMBps: 10, RTT: ms(20), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "C", BaseMBps: 6, RTT: ms(30), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "C", To: "D", BaseMBps: 8, RTT: ms(30), Jitter: 1e-9})
	topo.AddSymmetricLink(cloud.LinkSpec{From: "A", To: "D", BaseMBps: 4, RTT: ms(60), Jitter: 1e-9})
	net := netsim.New(sched, topo, rng.New(1), netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9})
	mon := monitor.NewService(net, monitor.Options{Interval: 15 * time.Second})
	mon.Start()
	mgr := NewManager(net, mon, Options{
		ChunkBytes: 8 << 20,
		Params: model.Params{Gain: 0.55, MaxSpeedup: 4, Intr: 1,
			Class: cloud.Medium, EgressPerGB: 0.12},
	})
	for _, id := range []cloud.SiteID{"A", "B", "C", "D"} {
		mgr.Deploy(id, cloud.Medium, 8)
	}
	sched.RunFor(time.Minute) // learning phase: estimates settle
	r := &benchRig{sched: sched, net: net, mgr: mgr}
	r.onDone = func(Result) { r.done = true }
	return r
}

// runToDone drives the simulation until the transfer completes, then hands
// the run back to the manager's pool.
func (r *benchRig) runToDone(b *testing.B, req Request) {
	r.done = false
	h, err := r.mgr.Transfer(req, r.onDone)
	if err != nil {
		b.Fatalf("Transfer: %v", err)
	}
	for !r.done {
		r.sched.RunFor(time.Minute)
	}
	r.mgr.Recycle(h)
}

// RunBenchmarkTransfer measures one full transfer of `chunks` 1 MiB chunks
// under the given strategy on a persistent rig — the dispatch -> flow ->
// ack steady-state path, end to end. The rig is shared across iterations so
// pooled state (runs, lanes, chunk slabs, flows) is reused the way the
// engine's windowed ship path reuses it.
func RunBenchmarkTransfer(b *testing.B, strategy Strategy, chunks int) {
	r := newBenchRig()
	req := Request{From: "A", To: "D", Size: int64(chunks) << 20,
		ChunkBytes: 1 << 20, Strategy: strategy, Lanes: 4, NodeBudget: 8, Intr: 1}
	r.runToDone(b, req) // warm pools outside the measured window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.runToDone(b, req)
	}
}

// RunBenchmarkFailoverChurn measures an EnvAware transfer that loses and
// regains source nodes every few seconds: the requeue/retransmit/self-heal
// path under lane churn.
func RunBenchmarkFailoverChurn(b *testing.B, chunks int) {
	r := newBenchRig()
	pool := r.mgr.Pool("A")
	flip := 0
	tick := r.sched.NewTicker(5*time.Second, func(simtime.Time) {
		n := pool[flip%2]
		if n.Failed() {
			r.net.RestoreNode(n)
		} else {
			r.net.KillNode(n)
		}
		flip++
	})
	defer tick.Stop()
	req := Request{From: "A", To: "D", Size: int64(chunks) << 20,
		ChunkBytes: 1 << 20, Strategy: EnvAware, Lanes: 4, Intr: 1}
	r.runToDone(b, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.runToDone(b, req)
	}
}
