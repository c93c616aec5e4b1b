package core

import (
	"reflect"
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
	for i := range g.run.srcs {
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
// its cells: nothing writes an aggregate between WindowAgg.Advance returning
// it and the trim that drops it from the log. The run is driven one event at
// a time; every aggregate is snapshotted right after the event that logged it
// and compared with itself right after the event that dropped it (the trim
// hands it to its source's pool, which clears it only when a later window
// takes it), or at run end if it is still logged, across a source outage
// (operator reset, replay from the log), a sink failover (every alive source
// re-ships from the log) and the trims in between. Four shards, so that under
// -race a stage still writing an aggregate the scheduler goroutine has logged
// would also show as a race.
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
	check := func(agg *stream.KeyedAgg, was logged, when string) {
		if len(was.cells) == 0 {
			t.Fatalf("source %d window %v was logged empty", was.src, was.window)
		}
		if !slices.Equal(agg.Snapshot(), was.cells) {
			t.Errorf("source %d window %v: the logged aggregate changed before %s", was.src, was.window, when)
		}
	}
	inLog := make(map[*stream.KeyedAgg]logged)
	windows := make(map[[2]int64]bool)     // (source, window start) ever logged
	aggs := make(map[*stream.KeyedAgg]int) // times each aggregate was logged
	left := 0
	for end := simtime.Time(dur + time.Minute); e.Sched.Now() < end && e.Sched.Step(); {
		now := make(map[*stream.KeyedAgg]bool)
		for i := range g.run.srcs {
			for _, lw := range g.log.Windows(i) {
				now[lw.Agg] = true
				if _, ok := inLog[lw.Agg]; !ok {
					inLog[lw.Agg] = logged{src: i, window: lw.Window, cells: lw.Agg.Snapshot()}
					windows[[2]int64{int64(i), int64(lw.Window.Start)}] = true
					aggs[lw.Agg]++
				}
			}
		}
		for agg, was := range inLog {
			if !now[agg] {
				check(agg, was, "it left the log")
				delete(inLog, agg)
				left++
			}
		}
	}
	rep := e.Wait(0, run)[0]
	for agg, was := range inLog {
		check(agg, was, "run end")
	}

	rm := rep.Resilience
	if rm.Failures != 2 || rm.Recoveries != 1 || rm.Failovers != 1 || rm.ReplayedWindows < 3 {
		t.Fatalf("schedule did not exercise replay and failover: %+v", rm)
	}
	if want := 10 * len(g.run.srcs); len(windows) != want {
		t.Fatalf("saw %d logged source windows, want one per source window (%d)", len(windows), want)
	}
	reused := 0
	for _, n := range aggs {
		reused += n - 1
	}
	if left == 0 || reused == 0 {
		t.Fatalf("%d aggregates left the log and %d were logged again for a later window: the trim never recycled", left, reused)
	}
}

// TestPooledAggregatesHaveNoReader pins the ownership rule behind aggregate
// pooling: an aggregate in a pool — a source's or a job's sink pool — has no
// reader left. After every event of a run it must not be in a batch log, a
// live transfer, a held ship, a staged or parked window, an open window, a
// sink window's merged state or a job's global answer. Two jobs share the
// engine and its four shards: a resilient one through a source outage and a
// sink failover, whose partials go back at the trim, and a plain one, whose
// partials go back at the sink merge. The scheduler preempts both twice:
// across the source's recovery and the next checkpoint, so the replays of
// windows that had completed are held when the trim drops them, and across
// the failover, so held ships are dropped with the sink. Every checkpoint
// must also record the global answer as it stands, though a round reuses the
// last round's snapshot of it until a window completes. Both answers must
// still be their unfailed, unpreempted runs'.
func TestPooledAggregatesHaveNoReader(t *testing.T) {
	const dur = 5 * time.Minute
	plain := func() JobSpec {
		job := basicJob(transfer.EnvAware)
		job.Sources = []SourceSpec{
			{Site: cloud.SouthUS, Rate: workload.ConstantRate(200)},
			{Site: cloud.EastUS, Rate: workload.ConstantRate(200)},
			{Site: cloud.WestUS, Rate: workload.ConstantRate(200)},
		}
		job.Sink = cloud.WestEU
		return job
	}
	var clean [2]*Report
	for i, job := range []JobSpec{basicJob(transfer.EnvAware), plain()} {
		rep, err := quietEngine(77).Run(job, dur)
		if err != nil {
			t.Fatal(err)
		}
		clean[i] = rep
	}

	e := NewEngine(WithOptions(Options{
		Seed: 77, Topology: cloud.DefaultAzure(), Net: quietNetOptions(), Shards: 4,
	}))
	e.DeployEverywhere(cloud.Medium, 8)
	killSite(e, cloud.NorthEU, 65*time.Second)
	restoreSite(e, cloud.NorthEU, 125*time.Second)
	killSite(e, cloud.NorthUS, 185*time.Second) // the resilient job's sink
	var runs []*JobRun
	for _, job := range []JobSpec{resilientJob(transfer.EnvAware, 30*time.Second), plain()} {
		run, err := e.Start(job, dur)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	for _, span := range [][2]time.Duration{{120 * time.Second, 160 * time.Second}, {182 * time.Second, 200 * time.Second}} {
		e.Sched.At(span[0], func() {
			for _, r := range runs {
				e.PauseJobTransfers(r)
			}
		})
		e.Sched.At(span[1], func() {
			for _, r := range runs {
				e.ResumeJobTransfers(r)
			}
		})
	}

	var pooled, held, merged int // what the rule was checked against
	g, rounds := runs[0].guard, 0
	for end := simtime.Time(dur + time.Minute); e.Sched.Now() < end && e.Sched.Step(); {
		if g.met.Checkpoints > rounds {
			rounds = g.met.Checkpoints
			ck, err := resilience.DecodeCheckpoint(g.lastCkpt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ck.Sink.Global, runs[0].rep.Global.Snapshot()) {
				t.Fatalf("at %v: checkpoint %d records a stale global answer", e.Sched.Now(), rounds)
			}
		}
		var pools []*stream.AggPool
		var readers []aggReader
		for _, r := range runs {
			pools = append(pools, r.sinkPool)
			for _, s := range r.srcs {
				pools = append(pools, s.agg.Pool())
			}
			readers = append(readers, aggReaders(r)...)
			held += len(r.held)
		}
		for _, rd := range readers {
			for _, p := range pools {
				if p.Holds(rd.agg) {
					t.Fatalf("at %v: a pooled aggregate is still read by %s", e.Sched.Now(), rd.what)
				}
			}
			if rd.what == "a sink window" {
				merged++
			}
		}
		for _, p := range pools {
			pooled += poolLen(p)
		}
	}
	reps := e.Wait(0, runs...)

	if rm := reps[0].Resilience; rm.Failures != 2 || rm.Recoveries != 1 || rm.Failovers != 1 {
		t.Fatalf("schedule did not exercise recovery and failover: %+v", rm)
	}
	if pooled == 0 || held == 0 || merged == 0 {
		t.Fatalf("the rule was not exercised: %d pooled, %d held and %d merged aggregate-steps", pooled, held, merged)
	}
	for i, rep := range reps {
		if rep.Windows != clean[i].Windows || rep.Incomplete != 0 {
			t.Fatalf("job %d: %d windows (+%d incomplete), want %d", i, rep.Windows, rep.Incomplete, clean[i].Windows)
		}
		sameGlobal(t, clean[i].Global, rep.Global)
	}
}

// aggReader is one reference to an aggregate that a pool must not hold.
type aggReader struct {
	agg  *stream.KeyedAgg
	what string
}

// aggReaders lists every reference a run holds to an aggregate, source-side
// and sink-side.
func aggReaders(r *JobRun) []aggReader {
	var out []aggReader
	add := func(a *stream.KeyedAgg, what string) {
		if a != nil {
			out = append(out, aggReader{a, what})
		}
	}
	for _, lx := range r.live {
		add(lx.cw.Agg, "a live transfer")
	}
	for _, hs := range r.held {
		add(hs.cw.Agg, "a held ship")
	}
	for _, s := range r.srcs {
		for _, st := range s.pending[s.pendingHead:] {
			for _, cw := range st.closed {
				add(cw.Agg, "a staged window")
			}
		}
		for _, a := range openAggs(s.agg) {
			add(a, "an open window")
		}
	}
	if g := r.guard; g != nil {
		for i := range g.run.srcs {
			for _, lw := range g.log.Windows(i) {
				add(lw.Agg, "the batch log")
			}
			for _, p := range g.parked[i] {
				for _, cw := range p.st.closed {
					add(cw.Agg, "a parked window")
				}
			}
		}
	}
	for _, ws := range r.windows {
		add(ws.merged, "a sink window")
	}
	add(r.rep.Global, "the global answer")
	return out
}

// openAggs returns the aggregates of a WindowAgg's open windows. The map is
// the aggregator's own; the probe reads it by reflection rather than widen
// the package's API for a test.
func openAggs(w *stream.WindowAgg) []*stream.KeyedAgg {
	var out []*stream.KeyedAgg
	it := reflect.ValueOf(w).Elem().FieldByName("open").MapRange()
	for it.Next() {
		out = append(out, (*stream.KeyedAgg)(it.Value().UnsafePointer()))
	}
	return out
}

// poolLen returns how many aggregates a pool holds, by the same reflection.
func poolLen(p *stream.AggPool) int {
	return reflect.ValueOf(p).Elem().FieldByName("free").Len()
}

// TestCheckpointSteadyStateAllocs is the price tag on a checkpoint round: at
// 20 000 keys, with the sink's global answer and a half-arrived window to
// snapshot and an in-flight transfer's ledger to record, a round after the
// first two (which size the cell scratch and both encode buffers) makes a
// handful of small allocations and none that grows with the key count — the
// cells alone would be 1.9 MB a round. Every measured round re-snapshots the
// global answer, as a round after a window completion does.
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

	round := func() {
		g.globalStale = true
		g.checkpoint()
	}
	if n := testing.AllocsPerRun(10, round); n > 16 {
		t.Errorf("%v allocs per steady-state checkpoint, want <= 16", n)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
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
