package core

import (
	"bytes"
	"fmt"
	"slices"
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

// TestStagePathsAgree: the columnar fold a Map-less job takes and the
// materialise → Map → Add path a job with a Map takes stage the same
// partial, bit for bit, when the Map leaves keys and values alone: the
// identity, or a Map that moves every event one window later, whose Time the
// stage does not read — an event stays in the window it was drawn in. Which
// path runs is the job's choice, never a different answer.
func TestStagePathsAgree(t *testing.T) {
	end := simtime.Time(60 * time.Second)
	job, newGen := stageJob(nil)
	_, columnar := stageOne(job, newGen(), end)
	maps := []struct {
		name string
		fn   stream.MapFunc
	}{
		{"identity", func(ev stream.Event) (stream.Event, bool) { return ev, true }},
		{"one window later", func(ev stream.Event) (stream.Event, bool) {
			ev.Time += simtime.Time(job.Window)
			return ev, true
		}},
	}
	for _, m := range maps {
		job.Map = m.fn
		_, mapped := stageOne(job, newGen(), end)
		if columnar.start != mapped.start || columnar.kept != mapped.kept || columnar.bytes != mapped.bytes ||
			!slices.Equal(columnar.agg.AppendSnapshot(nil), mapped.agg.AppendSnapshot(nil)) {
			t.Fatalf("%s: columnar partial (start %v, %d events, %d keys, %d bytes) differs from the mapped one (start %v, %d events, %d keys, %d bytes)",
				m.name, columnar.start, columnar.kept, columnar.agg.Keys(), columnar.bytes,
				mapped.start, mapped.kept, mapped.agg.Keys(), mapped.bytes)
		}
	}
}

// TestStageMapSeesWholeWindowInOrder: a Map that drops some events and
// rewrites others is handed exactly the events a whole-window draw yields, in
// that order, and the staged partial is the fold of what it returned.
func TestStageMapSeesWholeWindowInOrder(t *testing.T) {
	var seen []stream.Event
	mapFn := func(ev stream.Event) (stream.Event, bool) {
		seen = append(seen, ev)
		switch len(seen) % 5 {
		case 0:
			return ev, false
		case 1:
			ev.Key, ev.KeyID = "rewritten", 0
		case 2:
			ev.Value = -ev.Value
		}
		return ev, true
	}
	job, newGen := stageJob(mapFn)
	end := simtime.Time(60 * time.Second)
	_, st := stageOne(job, newGen(), end)

	whole := newGen().AppendEvents(nil, 24000, end-simtime.Time(job.Window), job.Window)
	got := seen
	seen = nil
	want := stream.NewKeyedAggDense(job.Agg, newGen().Table())
	if len(got) != len(whole) {
		t.Fatalf("Map saw %d events, window has %d", len(got), len(whole))
	}
	kept := 0
	for i, ev := range whole {
		if got[i] != ev {
			t.Fatalf("Map call %d saw %+v, whole-window draw has %+v", i, got[i], ev)
		}
		if out, ok := mapFn(ev); ok {
			want.Add(out)
			kept++
		}
	}
	if st.kept != kept {
		t.Fatalf("staged kept %d, want %d", st.kept, kept)
	}
	a, b := st.agg.Result(), want.Result()
	if len(a) != len(b) {
		t.Fatalf("staged partial has %d keys, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: staged %+v, reference %+v", i, a[i], b[i])
		}
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
				job.Map = func(ev stream.Event) (stream.Event, bool) { return ev, ev.KeyID%3 != 0 }
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
