package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/trace"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// stageOne runs one source's stage for the window ending at end, outside any
// scheduler and on an engine of one empty shard, and returns that shard's
// scratch: stageWindow touches only the source's own state and its shard's.
func stageOne(job JobSpec, gen *workload.SensorGen, end simtime.Time) (*stageScratch, stagedWindow) {
	s := &sourceState{
		spec: job.Sources[0],
		gen:  gen,
		pool: stream.NewAggPool(job.Agg, gen.Table()),
	}
	e := &Engine{scratch: make([]stageScratch, 1)}
	return &e.scratch[0], e.stageWindow(&JobRun{job: job}, s, end)
}

func stageJob(mapFn stream.MapFunc) (JobSpec, func() *workload.SensorGen) {
	newGen := func() *workload.SensorGen {
		return workload.NewSensorGen(rng.New(11), cloud.NorthEU, workload.SensorOpts{Keys: 300, Skew: 1.3})
	}
	return JobSpec{
		// 800 ev/s × 30 s = 24 000 events a window: 23 whole blocks and a
		// part one.
		Sources: []SourceSpec{{Site: cloud.NorthEU, Rate: workload.ConstantRate(800)}},
		Sink:    cloud.NorthUS,
		Window:  30 * time.Second,
		Agg:     stream.Mean,
		Map:     mapFn,
	}, newGen
}

// TestStageBufferIsOneBlock pins the memory claim of the block-at-a-time
// stage: a 24 000-event window goes through its shard's one columnar block of
// stageBlock events, 12 bytes each.
func TestStageBufferIsOneBlock(t *testing.T) {
	job, newGen := stageJob(nil)
	sc, st := stageOne(job, newGen(), simtime.Time(60*time.Second))
	if st.kept != 24000 {
		t.Fatalf("staged %d events, want 24000", st.kept)
	}
	if bytes := blockBytes(sc); bytes != 12*stageBlock {
		t.Fatalf("shard block holds %d IDs and %d values (%d bytes), want one block of %d × 12 bytes",
			cap(sc.block.IDs), cap(sc.block.Values), bytes, stageBlock)
	}
}

// blockBytes is what a shard's block columns hold.
func blockBytes(sc *stageScratch) int { return 4*cap(sc.block.IDs) + 8*cap(sc.block.Values) }

// TestStagePathsAgree: a job's stage folds the partial a reference folds, bit
// for bit, with no Map and with an identity Map, a Map that rewrites values
// and a Map that drops events. The reference regenerates the window with
// AppendEvents, applies the Map to each event's key and value and folds what
// it keeps by AddValue into a map-backed aggregate: it shares with the stage
// neither the block, nor the compaction, nor the dense cells.
func TestStagePathsAgree(t *testing.T) {
	end := simtime.Time(60 * time.Second)
	for _, m := range []struct {
		name string
		fn   stream.MapFunc
	}{
		{"no Map", nil},
		{"identity", func(_ string, v float64) (float64, bool) { return v, true }},
		{"value-rewriting", func(key string, v float64) (float64, bool) { return v*float64(len(key)) - 3, true }},
		{"dropping", func(key string, v float64) (float64, bool) { return v, v > 0 && key[len(key)-1] != '7' }},
	} {
		job, newGen := stageJob(m.fn)
		_, st := stageOne(job, newGen(), end)
		want := stream.NewKeyedAgg(job.Agg)
		kept := 0
		for _, ev := range newGen().AppendEvents(nil, 24000, end-simtime.Time(job.Window), job.Window) {
			v, ok := ev.Value, true
			if m.fn != nil {
				v, ok = m.fn(ev.Key, ev.Value)
			}
			if ok {
				want.AddValue(ev.Key, v)
				kept++
			}
		}
		got, ref := st.agg.Result(), want.Result()
		same := len(got) == len(ref)
		for i := 0; same && i < len(got); i++ {
			same = got[i].Key == ref[i].Key && math.Float64bits(got[i].Value) == math.Float64bits(ref[i].Value)
		}
		if !same || st.kept != kept || st.bytes != want.SerializedBytes() || st.agg.SerializedBytes() != st.bytes {
			t.Fatalf("%s: staged %d events, %d keys, %d bytes; the reference %d events, %d keys, %d bytes (rows equal: %v)",
				m.name, st.kept, len(got), st.bytes, kept, len(ref), want.SerializedBytes(), same)
		}
	}
}

// TestStageMapSeesWholeWindowInOrder: a Map is handed exactly the (key, value)
// pairs a whole-window draw yields, in that order, once each, whatever it
// keeps.
func TestStageMapSeesWholeWindowInOrder(t *testing.T) {
	var seen []stream.KV
	job, newGen := stageJob(func(key string, v float64) (float64, bool) {
		seen = append(seen, stream.KV{Key: key, Value: v})
		return -v, len(seen)%5 != 0
	})
	end := simtime.Time(60 * time.Second)
	_, st := stageOne(job, newGen(), end)
	whole := newGen().AppendEvents(nil, 24000, end-simtime.Time(job.Window), job.Window)
	if len(seen) != len(whole) || st.kept != len(whole)-len(whole)/5 {
		t.Fatalf("Map saw %d events and kept %d, window has %d", len(seen), st.kept, len(whole))
	}
	for i, ev := range whole {
		if seen[i] != (stream.KV{Key: ev.Key, Value: ev.Value}) {
			t.Fatalf("Map call %d saw %+v, whole-window draw has %+v", i, seen[i], ev)
		}
	}
}

// TestMapStageSteadyStateAllocs: a steady-state stage of a job whose Map
// drops events and rewrites values — draw, map, fold, size the partial, put
// the aggregate back — allocates nothing: the Map sees keys the table already
// holds and the block is compacted where it lies.
func TestMapStageSteadyStateAllocs(t *testing.T) {
	job, newGen := stageJob(func(_ string, v float64) (float64, bool) { return 2 * v, v > 0 })
	gen := newGen()
	s := &sourceState{spec: job.Sources[0], gen: gen, pool: stream.NewAggPool(job.Agg, gen.Table())}
	e, run := &Engine{scratch: make([]stageScratch, 1)}, &JobRun{job: job}
	end := simtime.Time(0)
	stage := func() {
		end += simtime.Time(job.Window)
		s.pool.Put(e.stageWindow(run, s, end).agg)
	}
	stage()
	if a := testing.AllocsPerRun(20, stage); a != 0 {
		t.Fatalf("a steady-state stage with a Map allocates %v per window", a)
	}
}

// TestShardScratchSharedAcrossJobs: a stage's block belongs to its executor
// shard, and the stages of every source dealt to a shard — of any job — take
// turns with it. Three concurrent jobs of 15 sources on a
// 4-worker engine put 45 generators on its 32 executor shards, so most shards
// stage sources of two jobs, one of them with a Map. Under -race this is the
// proof that a shard never runs two stages at once; the reports and the trace
// equal a one-shard engine's, where all 45 sources share one block, and no
// shard holds more than one block: at most stageBlock events' worth, or twice
// that for a block whose first fill was short and grew once on the way.
func TestShardScratchSharedAcrossJobs(t *testing.T) {
	run := func(shards int) (string, *Engine) {
		world := cloud.GenerateWorld(16, 3, 4)
		rec := trace.New(1 << 16)
		e := NewEngine(WithOptions(Options{Topology: world, Obs: traced(rec)}), WithShards(shards), WithSeed(3))
		e.DeployEverywhere(cloud.Small, 2)
		var runs []*JobRun
		for j := 0; j < 3; j++ {
			job := JobSpec{Sink: cloud.GeneratedHub(j), Window: time.Duration(10+5*j) * time.Second,
				Agg: []stream.AggKind{stream.Sum, stream.Mean, stream.Max}[j], Strategy: transfer.Direct}
			if j == 1 {
				job.Map = func(key string, v float64) (float64, bool) { return v, key[len(key)-1]%3 != 0 }
			}
			for i := 1; i < 16; i++ {
				site := cloud.GeneratedSiteID(i)
				job.Sources = append(job.Sources, SourceSpec{Site: site, Rate: workload.ConstantRate(float64(40 + 10*j)),
					Gen: workload.NewSensorGen(rng.New(uint64(100*j+i)), site, workload.SensorOpts{Keys: 200, Skew: 1.2})})
			}
			r, err := e.Start(job, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		fp := ""
		for _, rep := range e.Wait(time.Minute, runs...) {
			fp += fmt.Sprintf("%d %d %d %.6f %v\n", rep.Windows, rep.TotalEvents, rep.TotalBytes, rep.TotalCost, rep.Global.AppendSnapshot(nil))
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return fp + buf.String(), e
	}
	seq, one := run(1)
	par, four := run(4)
	if four.ShardRounds() == 0 {
		t.Fatal("the 4-worker run never staged in rounds")
	}
	if seq != par {
		t.Fatalf("three jobs sharing shards diverge from one shard:\nseq: %.300s\npar: %.300s", seq, par)
	}
	oneBlock := func(b int) bool { return b > 0 && b <= 12*stageBlock }
	if len(one.scratch) != 1 || !oneBlock(blockBytes(&one.scratch[0])) {
		t.Fatalf("one-shard engine: %d scratches, the first %d bytes; want one block of at most %d", len(one.scratch), blockBytes(&one.scratch[0]), 12*stageBlock)
	}
	if len(four.scratch) != 4*shardsPerWorker {
		t.Fatalf("4-worker engine has %d scratches, want one per executor shard (%d)", len(four.scratch), 4*shardsPerWorker)
	}
	for i := range four.scratch {
		if b := blockBytes(&four.scratch[i]); !oneBlock(b) {
			t.Fatalf("shard %d holds %d block bytes, want one block of at most %d", i, b, 12*stageBlock)
		}
	}
}
