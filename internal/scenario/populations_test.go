package scenario

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	apiv1 "sage/api/v1"
	"sage/internal/rng"
	"sage/internal/stream"
	"sage/internal/workload"
)

// sharedShapeRoster is 28 anonymous jobs of five sources each. Every source
// asks for 2 000 Zipf keys at skew 1.2 except the first source of every odd
// job, which asks for 500 uniform keys: 140 generators of two shapes.
func sharedShapeRoster() []apiv1.MultiJobConfig {
	jobs := make([]apiv1.MultiJobConfig, 28)
	for i := range jobs {
		j := &jobs[i]
		j.Sink, j.Window, j.Agg, j.Strategy, j.Duration = "NUS", apiv1.Duration(30*time.Second), "sum", "direct", apiv1.Duration(time.Minute)
		for k, site := range []string{"NEU", "WEU", "SUS", "WUS", "SEA"} {
			sc := apiv1.SourceConfig{Site: site, Rate: 100, Keys: 2000, Skew: 1.2}
			if k == 0 && i%2 == 1 {
				sc.Keys, sc.Skew = 500, 0
			}
			j.Sources = append(j.Sources, sc)
		}
	}
	return jobs
}

// TestBuildSchedJobsOnePopulationPerShape: a roster build makes one key
// list and alias table per distinct source shape, not one per source. All
// sources of a shape read one key list (pointer identity); the build
// allocates what the two populations cost plus a small constant a source;
// every source still gets a generator of its own; and each generator draws
// what the job built alone by BuildJob draws.
func TestBuildSchedJobsOnePopulationPerShape(t *testing.T) {
	jobs := sharedShapeRoster()
	// NewSensorGen also keeps the alias table it built last for the next
	// build of that shape. Building another shape first empties that slot of
	// the roster's, so both measurements below build their alias table.
	evictAlias := func() { workload.NewSensorGen(rng.New(1), "NEU", workload.SensorOpts{Keys: 2, Skew: 3}) }
	var before, after runtime.MemStats
	evictAlias()
	runtime.ReadMemStats(&before)
	specs := BuildSchedJobs(7, jobs, 3)
	runtime.ReadMemStats(&after)
	built := after.TotalAlloc - before.TotalAlloc

	evictAlias()
	runtime.ReadMemStats(&before)
	workload.NewSensorGen(rng.New(1), "NEU", workload.SensorOpts{Keys: 2000, Skew: 1.2})
	workload.NewSensorGen(rng.New(1), "NEU", workload.SensorOpts{Keys: 500})
	runtime.ReadMemStats(&after)
	populations := after.TotalAlloc - before.TotalAlloc

	keyLists := map[*byte]int{}
	gens := map[*workload.SensorGen]bool{}
	sources := 0
	for i, spec := range specs {
		if want := fmt.Sprintf("job%d", 3+i); spec.Name != want {
			t.Fatalf("job %d is named %q, want %q", i, spec.Name, want)
		}
		for _, src := range spec.Spec.Sources {
			keyLists[unsafe.StringData(src.Gen.Table().Key(1))]++
			gens[src.Gen] = true
			sources++
		}
	}
	if len(keyLists) != 2 || len(gens) != sources || sources != 140 {
		t.Fatalf("%d sources with %d generators read %d key lists, want 140, 140 and 2", sources, len(gens), len(keyLists))
	}
	if limit := populations + 1024*uint64(sources); built > limit {
		t.Fatalf("the roster build allocated %d B; two populations are %d B, so more than 1 KiB a source went elsewhere", built, populations)
	}

	var a, b stream.Block
	for i := range jobs {
		alone, err := BuildJob(7, &jobs[i].JobConfig, "scenario/"+specs[i].Name+"/")
		if err != nil {
			t.Fatal(err)
		}
		for k, src := range specs[i].Spec.Sources {
			src.Gen.FillBlock(&a, 1500, 0, time.Millisecond)
			alone.Sources[k].Gen.FillBlock(&b, 1500, 0, time.Millisecond)
			for e := range a.IDs {
				if a.IDs[e] != b.IDs[e] || math.Float64bits(a.Values[e]) != math.Float64bits(b.Values[e]) {
					t.Fatalf("job %d source %d event %d: roster build draws (%d, %v), BuildJob (%d, %v)",
						i, k, e, a.IDs[e], a.Values[e], b.IDs[e], b.Values[e])
				}
			}
		}
	}
}
