package core

import (
	"slices"
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
// stage: a 24 000-event window goes through one columnar block of stageBlock
// events, 12 bytes each, and a job without a Map never materialises a
// stream.Event, so the event buffer does not exist.
func TestStageBufferIsOneBlock(t *testing.T) {
	job, newGen := stageJob(nil)
	s, st := stageOne(job, newGen(), simtime.Time(60*time.Second))
	if st.kept != 24000 {
		t.Fatalf("staged %d events, want 24000", st.kept)
	}
	if s.buf != nil {
		t.Fatalf("a Map-less stage allocated an event buffer of %d events", cap(s.buf))
	}
	if bytes := 4*cap(s.block.IDs) + 8*cap(s.block.Values); bytes != 12*stageBlock {
		t.Fatalf("stage block holds %d IDs and %d values (%d bytes), want one block of %d × 12 bytes",
			cap(s.block.IDs), cap(s.block.Values), bytes, stageBlock)
	}
}

// TestStagePathsAgree: the columnar fold a Map-less job takes and the
// materialise → Map → AddBatch path a job with a Map takes stage the same
// partial, bit for bit, when the Map is the identity — which path runs is the
// job's choice, never a different answer.
func TestStagePathsAgree(t *testing.T) {
	end := simtime.Time(60 * time.Second)
	job, newGen := stageJob(nil)
	_, columnar := stageOne(job, newGen(), end)
	job.Map = func(ev stream.Event) (stream.Event, bool) { return ev, true }
	s, mapped := stageOne(job, newGen(), end)
	if cap(s.buf) < stageBlock {
		t.Fatalf("the Map path ran without its event buffer (cap %d)", cap(s.buf))
	}
	if columnar.kept != mapped.kept || len(columnar.closed) != 1 || len(mapped.closed) != 1 {
		t.Fatalf("columnar staged %d events in %d windows, mapped %d in %d",
			columnar.kept, len(columnar.closed), mapped.kept, len(mapped.closed))
	}
	a, b := columnar.closed[0], mapped.closed[0]
	if a.Window != b.Window || !slices.Equal(a.Agg.Snapshot(), b.Agg.Snapshot()) ||
		!slices.Equal(columnar.preBytes, mapped.preBytes) {
		t.Fatalf("columnar partial %v (%d keys, %v bytes) differs from the mapped one %v (%d keys, %v bytes)",
			a.Window, a.Agg.Keys(), columnar.preBytes, b.Window, b.Agg.Keys(), mapped.preBytes)
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
