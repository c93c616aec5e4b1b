package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/resilience"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// These tests pin what the resilience guard costs and keeps: how much batch
// log survives a checkpoint, that the aggregates the log holds by reference
// are never written, and what a steady-state checkpoint allocates.

// TestBatchLogTrimsAfterWarmup is the completion-frontier regression. Every
// scenario / saged / sagesim job starts after a warm-up, and every
// scheduler-admitted job mid-run, so its first window does not start at
// virtual time 0; a frontier that walks from 0 never moves, TrimThrough drops
// nothing, and the batch log holds every window of the run (here all 10 per
// source, each a dense cell table). With the walk started at the job's first
// window the log holds what the last checkpoint could not vouch for, and the
// recovered answer is the unfailed run's.
func TestBatchLogTrimsAfterWarmup(t *testing.T) {
	const warmup, dur = time.Minute, 5 * time.Minute

	clean := quietEngine(76)
	clean.Sched.RunFor(warmup)
	cleanRep, err := clean.Run(basicJob(transfer.EnvAware), dur)
	if err != nil {
		t.Fatal(err)
	}

	e := quietEngine(76)
	e.Sched.RunFor(warmup)
	killSite(e, cloud.NorthEU, warmup+65*time.Second)
	restoreSite(e, cloud.NorthEU, warmup+125*time.Second)
	run, err := e.Start(resilientJob(transfer.EnvAware, 30*time.Second), dur)
	if err != nil {
		t.Fatal(err)
	}
	// Past the last window close and the checkpoint tick that follows it.
	e.Sched.RunFor(dur + 45*time.Second)
	if !run.Done() {
		t.Fatal("run not done 45 s after its last window closed")
	}
	g := run.guard
	if g.met.Checkpoints < 8 {
		t.Fatalf("checkpoints = %d, want one per 30 s of a 5 m run", g.met.Checkpoints)
	}
	for i := range g.srcs {
		if n := g.log.Len(i); n > 2 {
			t.Errorf("source %d: batch log holds %d windows after the last checkpoint, want <= 2", i, n)
		}
	}
	rep := e.Wait(0, run)[0]

	rm := rep.Resilience
	if rm.Failures != 1 || rm.Recoveries != 1 || rm.ReplayedWindows == 0 {
		t.Fatalf("schedule did not exercise recovery: %+v", rm)
	}
	if rep.Windows != cleanRep.Windows || rep.Incomplete != 0 {
		t.Fatalf("windows = %d (+%d incomplete) after recovery, want %d", rep.Windows, rep.Incomplete, cleanRep.Windows)
	}
	sameGlobal(t, cleanRep.Global, rep.Global)
}

// TestLoggedAggregatesImmutable pins the invariant the batch log leans on
// when it keeps a closed window's aggregate by reference instead of copying
// its cells: nothing writes an aggregate after WindowAgg.Advance returned it.
// The run is driven one event at a time; every aggregate is snapshotted right
// after the event that logged it and compared with itself at run end, across
// a source outage (operator swap, replay from the log), a sink failover
// (every alive source re-ships from the log) and whatever trimming happens in
// between. Four shards, so that under -race a stage still writing an
// aggregate the scheduler goroutine has logged would also show as a race.
func TestLoggedAggregatesImmutable(t *testing.T) {
	const dur = 5 * time.Minute
	e := NewEngine(WithOptions(Options{
		Seed: 77, Topology: cloud.DefaultAzure(), Net: quietNetOptions(), Shards: 4,
	}))
	e.DeployEverywhere(cloud.Medium, 8)
	killSite(e, cloud.NorthEU, 65*time.Second)
	restoreSite(e, cloud.NorthEU, 125*time.Second)
	killSite(e, cloud.NorthUS, 185*time.Second) // the sink
	run, err := e.Start(resilientJob(transfer.EnvAware, 30*time.Second), dur)
	if err != nil {
		t.Fatal(err)
	}
	g := run.guard

	type logged struct {
		src    int
		window stream.Window
		cells  []stream.KeyCell
	}
	seen := make(map[*stream.KeyedAgg]logged)
	for end := simtime.Time(dur + time.Minute); e.Sched.Now() < end && e.Sched.Step(); {
		for i := range g.srcs {
			for _, lw := range g.log.Windows(i) {
				if _, ok := seen[lw.Agg]; !ok {
					seen[lw.Agg] = logged{src: i, window: lw.Window, cells: lw.Agg.Snapshot()}
				}
			}
		}
	}
	rep := e.Wait(0, run)[0]

	rm := rep.Resilience
	if rm.Failures != 2 || rm.Recoveries != 1 || rm.Failovers != 1 || rm.ReplayedWindows < 3 {
		t.Fatalf("schedule did not exercise replay and failover: %+v", rm)
	}
	if want := 10 * len(g.srcs); len(seen) != want {
		t.Fatalf("saw %d logged aggregates, want one per source window (%d)", len(seen), want)
	}
	for agg, was := range seen {
		if len(was.cells) == 0 {
			t.Fatalf("source %d window %v was logged empty", was.src, was.window)
		}
		if !slices.Equal(agg.Snapshot(), was.cells) {
			t.Errorf("source %d window %v: the logged aggregate changed after it was logged", was.src, was.window)
		}
	}
}

// TestCheckpointSteadyStateAllocs is the price tag on a checkpoint round: at
// 20 000 keys, with the sink's global answer and a half-arrived window to
// snapshot and an in-flight transfer's ledger to record, a round after the
// first two (which size the cell scratch and both encode buffers) makes a
// handful of small allocations and none that grows with the key count — the
// cells alone would be 1.9 MB a round.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	const keys = 20000
	e := quietEngine(78)
	job := resilientJob(transfer.EnvAware, 0) // rounds are taken by hand below
	job.Sources = nil
	for i, site := range []cloud.SiteID{cloud.NorthUS, cloud.NorthEU} { // one at the sink, one remote
		job.Sources = append(job.Sources, SourceSpec{
			Site: site, Rate: workload.ConstantRate(3000),
			Gen: workload.NewSensorGen(rng.New(uint64(5+i)), site, workload.SensorOpts{Keys: keys}),
		})
	}
	run, err := e.Start(job, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Just past the fourth window close: the local partial has merged, the
	// remote one is on the wire.
	e.Sched.RunFor(2*time.Minute + 20*time.Millisecond)
	g := run.guard
	g.checkpoint()
	g.checkpoint()

	ck, err := resilience.DecodeCheckpoint(g.lastCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Sink.Global) < keys*9/10 || len(ck.Sink.Partial) != 1 ||
		len(ck.Sink.Partial[0].Cells) < keys*9/10 || len(ck.Sources[1].Ledgers) != 1 {
		t.Fatalf("fixture: %d global cells, %d partial windows, %d ledgers: want ~%d-key global, one partial, one ledger",
			len(ck.Sink.Global), len(ck.Sink.Partial), len(ck.Sources[1].Ledgers), keys)
	}

	if n := testing.AllocsPerRun(10, g.checkpoint); n > 16 {
		t.Errorf("%v allocs per steady-state checkpoint, want <= 16", n)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		g.checkpoint()
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound > 4096 {
		t.Errorf("%d B allocated per steady-state checkpoint of %d B: something scales with the key count",
			perRound, len(g.lastCkpt))
	}
	if g.met.Checkpoints != 2+11+rounds {
		t.Fatalf("took %d checkpoints, want %d: rounds were skipped", g.met.Checkpoints, 2+11+rounds)
	}
}
