package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/resilience"
	"sage/internal/rng"
	"sage/internal/stream"
	"sage/internal/trace"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// shardedFixture runs one streaming job on a generated 24-site world with
// the given shard count and returns (trace JSONL, report fingerprint). The
// job exercises the full pipeline: per-source generation, windowed dense
// aggregation, budget-sized transfers and sink merging.
func shardedFixture(t *testing.T, shards int) ([]byte, string) {
	t.Helper()
	world := cloud.GenerateWorld(24, 4, 5)
	rec := trace.New(1 << 16)
	e := NewEngine(
		WithOptions(Options{Topology: world, Obs: traced(rec)}),
		WithSeed(11),
		WithShards(shards),
	)
	e.DeployEverywhere(cloud.Medium, 2)
	job := JobSpec{
		Sink:     cloud.GeneratedHub(0),
		Window:   20 * time.Second,
		Strategy: transfer.ParallelStatic,
		Lanes:    2,
	}
	for i := 4; i < 24; i++ {
		job.Sources = append(job.Sources, SourceSpec{
			Site: cloud.GeneratedSiteID(i),
			Rate: workload.ConstantRate(150),
		})
	}
	rep, err := e.Run(job, 2*time.Minute)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("shards=%d trace: %v", shards, err)
	}
	fp := fmt.Sprintf("windows=%d incomplete=%d events=%d bytes=%d cost=%.6f lat=%+v keys=%d top=%v sw=%d",
		rep.Windows, rep.Incomplete, rep.TotalEvents, rep.TotalBytes, rep.TotalCost,
		rep.LatencySummary, rep.Global.Keys(), rep.Global.TopK(10), len(rep.SiteWindows))
	for _, sw := range rep.SiteWindows {
		fp += fmt.Sprintf("\n%s %v %d %d %d %d %v %.6f",
			sw.Site, sw.Window, sw.Events, sw.Keys, sw.Bytes, sw.Lanes, sw.Transfer, sw.Cost)
	}
	return buf.Bytes(), fp
}

// TestShardedEngineByteIdentical is the end-to-end determinism property: for
// shards in {2, 4, 8} the full trace JSONL and the report are byte-identical
// to the sequential engine on a generated multi-region world.
func TestShardedEngineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard sweep is not short")
	}
	seqTrace, seqRep := shardedFixture(t, 1)
	if len(seqTrace) == 0 {
		t.Fatal("sequential run recorded no trace")
	}
	for _, shards := range []int{2, 4, 8} {
		gotTrace, gotRep := shardedFixture(t, shards)
		if !bytes.Equal(gotTrace, seqTrace) {
			t.Errorf("shards=%d: trace JSONL diverges from sequential (%d vs %d bytes)",
				shards, len(gotTrace), len(seqTrace))
		}
		if gotRep != seqRep {
			t.Errorf("shards=%d: report diverges from sequential\ngot:  %.300s\nwant: %.300s",
				shards, gotRep, seqRep)
		}
	}
}

// TestShardedEngineActuallyShards asserts the parallel path is really taken:
// a multi-shard engine reports its shard count and stages work in rounds.
func TestShardedEngineActuallyShards(t *testing.T) {
	world := cloud.GenerateWorld(12, 3, 2)
	e := NewEngine(WithOptions(Options{Topology: world}), WithShards(4))
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", e.Shards())
	}
	e.DeployEverywhere(cloud.Small, 1)
	job := JobSpec{
		Sink:     cloud.GeneratedHub(0),
		Window:   10 * time.Second,
		Strategy: transfer.Direct,
	}
	for i := 3; i < 12; i++ {
		job.Sources = append(job.Sources, SourceSpec{
			Site: cloud.GeneratedSiteID(i),
			Rate: workload.ConstantRate(50),
		})
	}
	rep, err := e.Run(job, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 6 {
		t.Fatalf("completed %d windows, want 6", rep.Windows)
	}
	if rep.TotalEvents == 0 {
		t.Fatal("no events processed")
	}
}

// TestShardsDefaultIsOnePerCore: an engine that does not pin a shard count
// gets one shard per GOMAXPROCS and stages in rounds, while WithShards(1)
// keeps the fused sequential path — no round ever runs — with the same
// report.
func TestShardsDefaultIsOnePerCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if n := NewEngine().Shards(); n != 3 {
		t.Fatalf("NewEngine().Shards() = %d under GOMAXPROCS 3, want 3", n)
	}
	run := func(opts ...Option) (*Engine, string) {
		e := NewEngine(append([]Option{WithOptions(Options{Net: quietNetOptions()})}, opts...)...)
		e.DeployEverywhere(cloud.Medium, 8)
		rep, err := e.Run(basicJob(transfer.EnvAware), 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return e, fmt.Sprintf("%d %d %d %.9f %v", rep.Windows, rep.TotalEvents, rep.TotalBytes,
			rep.TotalCost, rep.Global.AppendSnapshot(nil))
	}
	seq, seqRep := run(WithShards(1))
	if seq.Shards() != 1 || seq.ShardRounds() != 0 {
		t.Fatalf("WithShards(1): Shards() = %d, ShardRounds() = %d, want 1 and 0", seq.Shards(), seq.ShardRounds())
	}
	def, defRep := run()
	if def.ShardRounds() == 0 {
		t.Fatal("the default engine never staged in rounds")
	}
	if defRep != seqRep {
		t.Fatalf("default engine diverges from one shard:\ndefault: %.300s\none:     %.300s", defRep, seqRep)
	}
}

// TestSourcesDealtRoundRobin: each new generator gets the next executor shard
// from one engine-wide counter, so three 5-source jobs on the same five sites
// spread over a 2-worker engine's 16 executor shards at most one apart —
// dealing by site index would put 6 : 9 on two shards.
func TestSourcesDealtRoundRobin(t *testing.T) {
	e := NewEngine(WithShards(2))
	if e.Shards() != 2 || e.shard.Shards() != 2*shardsPerWorker {
		t.Fatalf("WithShards(2): %d workers over %d executor shards, want 2 over %d",
			e.Shards(), e.shard.Shards(), 2*shardsPerWorker)
	}
	perShard := make([]int, e.shard.Shards())
	for j := 0; j < 3; j++ {
		// A checkpoint interval gives every run a resilience guard, which
		// keeps the run's sources where the test can read their shards.
		job := JobSpec{Sink: cloud.NorthUS, Window: 30 * time.Second, Strategy: transfer.Direct,
			Resilience: &resilience.Config{CheckpointInterval: time.Minute}}
		for _, site := range []cloud.SiteID{cloud.NorthEU, cloud.WestEU, cloud.SouthUS, cloud.EastUS, cloud.WestUS} {
			job.Sources = append(job.Sources, SourceSpec{Site: site, Rate: workload.ConstantRate(10)})
		}
		run, err := e.Start(job, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range run.srcs {
			perShard[s.shard]++
		}
	}
	if d := slices.Max(perShard) - slices.Min(perShard); d > 1 {
		t.Fatalf("sources per shard %v, want counts differing by at most 1", perShard)
	}
}

// TestShardedSharedGenCoSharded: sources sharing one generator instance
// couple their RNG streams, so the engine places them on one shard, whose
// (time, seq) stage order is the generator's draw order. The run still
// stages in rounds and matches a one-shard engine byte-for-byte.
func TestShardedSharedGenCoSharded(t *testing.T) {
	run := func(shards int) (string, uint64) {
		world := cloud.GenerateWorld(8, 2, 3)
		rec := trace.New(1 << 14)
		e := NewEngine(WithOptions(Options{Topology: world, Obs: traced(rec)}), WithShards(shards), WithSeed(9))
		e.DeployEverywhere(cloud.Small, 1)
		gen := workload.NewSensorGen(rng.New(123), cloud.GeneratedSiteID(2), workload.SensorOpts{Keys: 50})
		job := JobSpec{
			Sink:     cloud.GeneratedHub(0),
			Window:   15 * time.Second,
			Strategy: transfer.Direct,
			Sources: []SourceSpec{
				{Site: cloud.GeneratedSiteID(2), Rate: workload.ConstantRate(40), Gen: gen},
				{Site: cloud.GeneratedSiteID(3), Rate: workload.ConstantRate(40), Gen: gen},
				{Site: cloud.GeneratedSiteID(5), Rate: workload.ConstantRate(40)},
			},
		}
		rep, err := e.Run(job, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %d %d %v\n%s", rep.Windows, rep.TotalEvents, rep.TotalBytes,
			rep.Global.TopK(5), buf.Bytes()), e.ShardRounds()
	}
	seq, _ := run(1)
	par, rounds := run(4)
	if seq != par {
		t.Fatalf("shared-generator job diverges under sharding:\nseq: %.300s\npar: %.300s", seq, par)
	}
	if rounds == 0 {
		t.Fatal("shared-generator job never staged in rounds: it fell back to sequential")
	}
}

// TestStageLookupsOnOwnTables: a Map that rewrites keys sends the stage's fold
// through KeyTable.Lookup on the source generator's table, and the first such
// Lookup builds that table's index. Each generator's stages run on the one
// shard it was dealt (sources sharing a generator share it), so under -race a
// 4-shard run indexes every table from one goroutine at a time, and it reports
// what a one-shard run does. Siblings of the shared generator are generators
// of their own, dealt their own shards: each indexes its own table over the
// one key list they all read.
func TestStageLookupsOnOwnTables(t *testing.T) {
	var names [30]string
	for k := range names {
		names[k] = fmt.Sprintf("sensor-%04d", k)
	}
	run := func(shards int) (string, uint64) {
		world := cloud.GenerateWorld(12, 3, 2)
		e := NewEngine(WithOptions(Options{Topology: world}), WithShards(shards), WithSeed(5))
		e.DeployEverywhere(cloud.Small, 1)
		shared := workload.NewSensorGen(rng.New(7), cloud.GeneratedSiteID(3), workload.SensorOpts{Keys: 40})
		job := JobSpec{Sink: cloud.GeneratedHub(0), Window: 10 * time.Second, Strategy: transfer.Direct}
		// Every key folds into a neighbour's cell, found by its string; one in
		// seven leaves the tables for an ad-hoc cell.
		job.Map = func(ev stream.Event) (stream.Event, bool) {
			ev.Key = names[ev.KeyID%len(names)]
			if ev.KeyID%7 == 0 {
				ev.Key = "elsewhere"
			}
			return ev, true
		}
		for i := 3; i < 12; i++ {
			src := SourceSpec{Site: cloud.GeneratedSiteID(i), Rate: workload.ConstantRate(60)}
			switch {
			case i < 5:
				src.Gen = shared
			case i < 9:
				src.Gen = shared.Sibling(rng.New(uint64(i)), src.Site)
			}
			job.Sources = append(job.Sources, src)
		}
		rep, err := e.Run(job, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rep.Global.Value("elsewhere"); !ok || rep.Global.Keys() != len(names)+1 {
			t.Fatalf("shards=%d: %d keys in the answer, want the %d rewritten ones", shards, rep.Global.Keys(), len(names)+1)
		}
		return fmt.Sprintf("%d %d %d %v", rep.Windows, rep.TotalEvents, rep.TotalBytes, rep.Global.AppendSnapshot(nil)), e.ShardRounds()
	}
	seq, _ := run(1)
	par, rounds := run(4)
	if rounds == 0 {
		t.Fatal("the 4-shard run never staged in rounds")
	}
	if seq != par {
		t.Fatalf("key-rewriting job diverges under sharding:\nseq: %.300s\npar: %.300s", seq, par)
	}
}

// TestGuardOrderedByCommit pins that the resilience guard decides at commit,
// not at stage. A stage may run up to one lookahead ahead of the commit
// clock, so whether a window is parked (its site declared dead) and what a
// checkpoint tick records must follow the commit order. Two-phase no-ops one
// lookahead before each window end make a 4-shard engine stage that window
// early, and the checkpoint ticks and heartbeat polls (hence the death
// declaration) land between that early stage and the window's commit. A
// guard that decided at stage would park, and checkpoint, different windows
// at 1 and 4 shards.
func TestGuardOrderedByCommit(t *testing.T) {
	const window = 30 * time.Second
	run := func(shards int) (string, *resilience.Metrics) {
		rec := trace.New(1 << 16)
		e := NewEngine(WithOptions(Options{
			Seed: 31, Topology: cloud.DefaultAzure(), Net: quietNetOptions(),
			Obs: traced(rec), Shards: shards,
		}))
		e.DeployEverywhere(cloud.Medium, 8)
		// The engine's lookahead: the topology's minimum WAN RTT.
		look := cloud.DefaultAzure().MinWANRTT()
		// Tick k fires at k·window − k·d, poll 6k with it: inside the last
		// lookahead before window end k for every k of the run.
		d := look / 60 * 6
		job := basicJob(transfer.EnvAware)
		job.Window = window
		job.Resilience = &resilience.Config{
			CheckpointInterval: window - d,
			HeartbeatInterval:  (window - d) / 6,
		}
		for k := 1; k <= 10; k++ {
			e.shard.At(0, time.Duration(k)*window-look, func() {}, func() {})
		}
		// Polls 17 and 18 miss, so NEU is declared dead at poll 18 = 90s − 3d,
		// after window 3's early stage and before its commit.
		killSite(e, cloud.NorthEU, 82*time.Second)
		restoreSite(e, cloud.NorthEU, 140*time.Second)
		rep, err := e.Run(job, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("windows=%d incomplete=%d events=%d bytes=%d cost=%.9f res=%+v global=%v\n%s",
			rep.Windows, rep.Incomplete, rep.TotalEvents, rep.TotalBytes, rep.TotalCost,
			rep.Resilience, rep.Global.AppendSnapshot(nil), buf.Bytes()), rep.Resilience
	}
	seq, rm := run(1)
	par, _ := run(4)
	if rm.Failures != 1 || rm.Recoveries != 1 || rm.Checkpoints == 0 || rm.ReplayedWindows == 0 {
		t.Fatalf("schedule did not exercise the guard: %+v", rm)
	}
	if seq != par {
		t.Fatalf("resilient run diverges between 1 and 4 shards:\nseq: %.400s\npar: %.400s", seq, par)
	}
}
