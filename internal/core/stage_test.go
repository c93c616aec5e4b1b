package core

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/workload"
)

// stageOne runs one source's stage for the window ending at end, outside any
// scheduler and on an empty engine: stageWindow touches only the source's
// own state.
func stageOne(job JobSpec, gen *workload.SensorGen, end simtime.Time) (*sourceState, stagedWindow) {
	s := &sourceState{
		spec: job.Sources[0],
		gen:  gen,
		agg:  stream.NewWindowAggDense(job.Window, job.Agg, gen.Table()),
	}
	return s, new(Engine).stageWindow(&JobRun{job: job}, s, end)
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
// stage: a 24 000-event window goes through a buffer of one block.
func TestStageBufferIsOneBlock(t *testing.T) {
	job, newGen := stageJob(nil)
	s, st := stageOne(job, newGen(), simtime.Time(60*time.Second))
	if st.kept != 24000 {
		t.Fatalf("staged %d events, want 24000", st.kept)
	}
	if cap(s.buf) != stageBlock {
		t.Fatalf("stage buffer holds %d events, want one block of %d", cap(s.buf), stageBlock)
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
	if st.kept != kept || len(st.closed) != 1 {
		t.Fatalf("staged kept %d in %d windows, want %d in 1", st.kept, len(st.closed), kept)
	}
	a, b := st.closed[0].Agg.Result(), want.Result()
	if len(a) != len(b) {
		t.Fatalf("staged partial has %d keys, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: staged %+v, reference %+v", i, a[i], b[i])
		}
	}
}
