package core

import (
	"bytes"
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
// virtual time 0; a frontier that walks from 0 never moves, the trim drops
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
		if n := len(g.log[i]); n > 2 {
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
// its cells: nothing writes an aggregate between the stage returning it and
// the trim that drops it from the log. The run is driven one event at
// a time; every aggregate is snapshotted right after the event that logged it
// and compared with itself right after the event that dropped it (the trim
// hands it to its source's pool, which clears it only when a later window
// takes it), or at run end if it is still logged, across a source outage
// (replay from the log), a sink failover (every alive source
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
		if !slices.Equal(agg.AppendSnapshot(nil), was.cells) {
			t.Errorf("source %d window %v: the logged aggregate changed before %s", was.src, was.window, when)
		}
	}
	inLog := make(map[*stream.KeyedAgg]logged)
	windows := make(map[[2]int64]bool)     // (source, window start) ever logged
	aggs := make(map[*stream.KeyedAgg]int) // times each aggregate was logged
	left := 0
	for end := simtime.Time(dur + time.Minute); e.Sched.Now() < end && e.Sched.Step(); {
		now := make(map[*stream.KeyedAgg]bool)
		for i, log := range g.log {
			for _, p := range log {
				now[p.agg] = true
				if _, ok := inLog[p.agg]; !ok {
					inLog[p.agg] = logged{src: i, window: p.window, cells: p.agg.AppendSnapshot(nil)}
					windows[[2]int64{int64(i), int64(p.window.Start)}] = true
					aggs[p.agg]++
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
// live transfer, a held ship, a staged or parked window, a sink window's
// merged state or a job's global answer. Two jobs share the
// engine and its four shards: a resilient one through a source outage and a
// sink failover, whose partials go back at the trim, and a plain one, whose
// partials go back at the sink merge. The scheduler preempts both twice:
// across the source's recovery and the next checkpoint, so the replays of
// windows that had completed are held when the trim drops them, and across
// the failover, so held ships are dropped with the sink. A window the trim
// dropped never enters its source's batch log again, though a held replay of
// it is resumed after the trim. Every checkpoint must also record the global
// answer as it stands, though a round reuses the last round's snapshot of it
// until a window completes. Both answers must still be their unfailed,
// unpreempted runs'.
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
	// (source, window start) in a batch log after the last event, and every
	// one a trim has dropped since the run began.
	logged, dropped := map[[2]int64]bool{}, map[[2]int64]bool{}
	for end := simtime.Time(dur + time.Minute); e.Sched.Now() < end && e.Sched.Step(); {
		now := make(map[[2]int64]bool)
		for i, log := range g.log {
			for _, p := range log {
				w := [2]int64{int64(i), int64(p.window.Start)}
				if dropped[w] {
					t.Fatalf("at %v: source %d window %v entered the batch log again after a trim dropped it",
						e.Sched.Now(), i, p.window)
				}
				now[w] = true
			}
		}
		for w := range logged {
			if !now[w] {
				dropped[w] = true
			}
		}
		logged = now
		if g.met.Checkpoints > rounds {
			rounds = g.met.Checkpoints
			ck, err := resilience.DecodeCheckpoint(g.ckpt.Last())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ck.Sink.Global, runs[0].rep.Global.AppendSnapshot(nil)) {
				t.Fatalf("at %v: checkpoint %d records a stale global answer", e.Sched.Now(), rounds)
			}
		}
		var pools []*stream.AggPool
		var readers []aggReader
		for _, r := range runs {
			pools = append(pools, r.sinkPool)
			for _, s := range r.srcs {
				pools = append(pools, s.pool)
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
			pooled += len(poolFree(p))
		}
	}
	reps := e.Wait(0, runs...)

	if rm := reps[0].Resilience; rm.Failures != 2 || rm.Recoveries != 1 || rm.Failovers != 1 {
		t.Fatalf("schedule did not exercise recovery and failover: %+v", rm)
	}
	if pooled == 0 || held == 0 || merged == 0 || len(dropped) == 0 {
		t.Fatalf("the rule was not exercised: %d pooled, %d held and %d merged aggregate-steps, %d trimmed windows",
			pooled, held, merged, len(dropped))
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
	for _, p := range r.live {
		add(p.agg, "a live transfer")
	}
	for _, p := range r.held {
		add(p.agg, "a held ship")
	}
	for _, s := range r.srcs {
		for _, st := range s.pending[s.pendingHead:] {
			add(st.agg, "a staged window")
		}
	}
	if g := r.guard; g != nil {
		for i, log := range g.log {
			for _, p := range log {
				add(p.agg, "the batch log")
			}
			for _, p := range g.parked[i] {
				add(p.st.agg, "a parked window")
			}
		}
	}
	for _, ws := range r.windows {
		add(ws.merged, "a sink window")
	}
	add(r.rep.Global, "the global answer")
	return out
}

// poolFree returns the aggregates a pool holds in the order they were filed.
// The list is the pool's own; the probe reads it by reflection rather than
// widen the package's API for a test.
func poolFree(p *stream.AggPool) []*stream.KeyedAgg {
	free := reflect.ValueOf(p).Elem().FieldByName("free")
	out := make([]*stream.KeyedAgg, free.Len())
	for i := range out {
		out[i] = (*stream.KeyedAgg)(free.Index(i).UnsafePointer())
	}
	return out
}

// loggedPartials returns n logged partials of one source, one per 30 s
// window from time 0, each with an aggregate from the source's pool.
func loggedPartials(n int) []*partial {
	const width = 30 * time.Second
	s := &sourceState{pool: stream.NewAggPool(stream.Sum, stream.NewKeyTable(stream.NewKeyList("k", []uint32{0, 1})))}
	log := make([]*partial, n)
	for i := range log {
		w := stream.Window{Start: simtime.Time(i) * simtime.Time(width), End: simtime.Time(i+1) * simtime.Time(width)}
		log[i] = &partial{window: w, agg: s.pool.Get(), s: s, logged: true}
	}
	return log
}

// TestTrimLogReleasesOldestFirst: a trim takes every partial ending at or
// before the cutoff out of the log and releases each, oldest first, so
// their aggregates reach the pool in window order. A dropped partial that a
// ship still reads, live or held, stays out of the pool until that ship lets
// go of it.
func TestTrimLogReleasesOldestFirst(t *testing.T) {
	all := loggedPartials(100)
	pool := all[0].s.pool
	live, held := all[10], all[20]
	live.h, held.held = &transfer.Handle{}, true

	kept := trimLog(slices.Clone(all), all[98].window.End)
	if len(kept) != 1 || kept[0] != all[99] || !kept[0].logged {
		t.Fatalf("trim kept %d partials, want only window %v, still logged", len(kept), all[99].window)
	}
	var want []*stream.KeyedAgg
	for _, p := range all[:99] {
		if p.logged {
			t.Fatalf("window %v was trimmed but still reads as logged", p.window)
		}
		if p != live && p != held {
			want = append(want, p.agg)
		}
	}
	if got := poolFree(pool); !slices.Equal(got, want) {
		t.Fatalf("the trim filed %d aggregates, want the 97 dropped ones no ship reads, oldest first", len(got))
	}

	live.h = nil
	live.release()
	held.held = false
	held.release()
	if got := poolFree(pool); len(got) != 99 || got[97] != live.agg || got[98] != held.agg {
		t.Fatal("a trimmed partial did not reach the pool when its last ship let go of it")
	}
}

// TestTrimLogClearsVacatedSlots: a trim compacts the log in place; the
// slots it vacates past the new length must not keep pointing at the
// dropped partials, or a trimmed window stays reachable — and its aggregate
// uncollectable — for as long as the log lives.
func TestTrimLogClearsVacatedSlots(t *testing.T) {
	all := loggedPartials(6)
	log := trimLog(slices.Clone(all), all[3].window.End)
	if len(log) != 2 || log[0] != all[4] || log[1] != all[5] {
		t.Fatalf("trim kept %d partials, want windows %v and %v", len(log), all[4].window, all[5].window)
	}
	for i, p := range log[len(log):cap(log)] {
		if p != nil {
			t.Fatalf("vacated slot %d still holds window %v", i, p.window)
		}
	}
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

	ck, err := resilience.DecodeCheckpoint(g.ckpt.Last())
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
			perRound, len(g.ckpt.Last()))
	}
	if g.met.Checkpoints != 2+11+rounds {
		t.Fatalf("took %d checkpoints, want %d: rounds were skipped", g.met.Checkpoints, 2+11+rounds)
	}
}

// TestCheckpointReuseRoundMatchesEncode: a round that finds the global answer
// unchanged since the last copies its encoded cells from the last round's
// bytes, a round after a window completed encodes them afresh, and every
// round's bytes are the ones a from-scratch Encode of the same state gives,
// snapshot retaken. The fixture is TestCheckpointSteadyStateAllocs's at fewer
// keys: a global answer, a half-arrived window and a live ledger.
func TestCheckpointReuseRoundMatchesEncode(t *testing.T) {
	e := quietEngine(78)
	job := resilientJob(transfer.EnvAware, 0)
	job.Sources = nil
	for i, site := range []cloud.SiteID{cloud.NorthUS, cloud.NorthEU} {
		job.Sources = append(job.Sources, SourceSpec{
			Site: site, Rate: workload.ConstantRate(3000),
			Gen: workload.NewSensorGen(rng.New(uint64(5+i)), site, workload.SensorOpts{Keys: 2000}),
		})
	}
	run, err := e.Start(job, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	g := run.guard
	round := func(what string, stale bool) {
		t.Helper()
		if g.globalStale != stale {
			t.Fatalf("%s: global snapshot stale %v, want %v", what, g.globalStale, stale)
		}
		g.checkpoint()
		got := bytes.Clone(g.ckpt.Last())
		g.globalStale = true
		ck := g.buildCheckpoint() // the same round number and state
		if len(ck.Sink.Global) < 1000 {
			t.Fatalf("%s: fixture has %d global cells", what, len(ck.Sink.Global))
		}
		if want := ck.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s encoded %d B, a from-scratch Encode %d B, and they differ", what, len(got), len(want))
		}
	}
	e.Sched.RunFor(2*time.Minute + 20*time.Millisecond)
	round("the first round", true)
	round("a round with nothing merged since", false)
	e.Sched.RunFor(30 * time.Second)
	round("a round after a window completed", true)
	round("the round after it", false)
}
