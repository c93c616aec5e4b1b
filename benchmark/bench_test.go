package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"sage/internal/rng"
)

// TestSmokeWorkloads runs every workload at a small scale with all output
// checks on: two units that must agree, then the reference comparison.
func TestSmokeWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	// resil_recover needs a run long enough for a site to fail and return.
	scales := map[string]float64{"agg_wide": 0.02, "raw_rough": 0.02, "resil_recover": 0.34, "serve_roster": 0.02}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			c := &runCtx{seed: 3, scale: scales[w.name], root: root, withObs: true}
			if w == serveRoster {
				// A traced unit serves the daemon package in-process, which
				// spares the test a go build of cmd/saged.
				c.tr = newTracer("smoke")
			}
			if w.prepare != nil {
				if err := w.prepare(c); err != nil {
					t.Fatal(err)
				}
			}
			var units []*unit
			for i := 0; i < 2; i++ {
				u, err := w.unit(c)
				if err != nil {
					t.Fatal(err)
				}
				if u.opsExpected == 0 || u.events == 0 || len(u.latencies) == 0 || u.costUSD <= 0 {
					t.Fatalf("unit %d measured nothing: %+v", i, u)
				}
				if u.opsFailed != 0 {
					t.Fatalf("unit %d: %d of %d operations failed", i, u.opsFailed, u.opsExpected)
				}
				units = append(units, u)
			}
			if err := checkUnits(units); err != nil {
				t.Fatal(err)
			}
			if w.verify != nil {
				if err := w.verify(c, units[0]); err != nil {
					t.Fatal(err)
				}
			}
			for name := range units[0].counts {
				if !isPerLayer(name) {
					t.Errorf("count %q is not a registered per-layer metric", name)
				}
			}
			if w == serveRoster && len(c.tr.spans) == 0 {
				t.Error("traced unit recorded no spans")
			}
			t.Logf("%s: %.2fs", w.name, time.Since(start).Seconds())
		})
	}
}

func isPerLayer(name string) bool {
	return slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == name })
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's registries in step:
// same workloads with the same reasons, same metrics with the same units,
// directions and bounds, and nothing else in the file.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) != 2 || doc.Command[0] != "bash" || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %q", doc.Command)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %q", doc.Paths)
	}
	if doc.RunSeconds < 5 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(doc.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		got := doc.Workloads[i]
		name(got.Name)
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(got.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", got.Name, len(got.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the file, %d in the code", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			name(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q", g.Name, g.Unit)
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d is %+v, the code has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in the file, %v in the code", g.Name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", g.Name)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(doc.PerLayer))
	}
	if endToEnd[0].name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// spin keeps a known function of a known layer hot.
func spin(d time.Duration) uint64 {
	z := rng.NewZipf(rng.New(1), 1.3, 1, 1<<20)
	var sum uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sum += z.Uint64()
		}
	}
	return sum
}

// TestProfileReader captures a CPU profile in-test and checks the reader:
// the layers add up to the total, and Zipf sampling lands in rng.
func TestProfileReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot profile here: %v", err)
	}
	if spin(400*time.Millisecond) == 0 {
		t.Log("unlikely sum")
	}
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Skipf("only %d samples in 400 ms: the host does not deliver profiling signals", len(samples))
	}
	layers, total := layerSeconds(samples)
	sum := 0.0
	for l, s := range layers {
		sum += s
		if !slices.Contains(layerCPU, l) {
			t.Errorf("layer %q is not in the table", l)
		}
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("layers add up to %v s, the profile holds %v s", sum, total)
	}
	if total < 0.2 || total > 1.0 {
		t.Errorf("profile total %v s for a 0.4 s spin", total)
	}
	if layers["rng"] < 0.8*total {
		t.Errorf("rng got %v of %v s; layers %v", layers["rng"], total, layers)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"stream", []string{"runtime.memmove", "sage/internal/stream.(*KeyedAgg).Snapshot", "sage/internal/core.(*jobGuard).checkpoint", "main.resilRun"}},
		{"rng", []string{"sage/internal/rng.(*Zipf).Uint64", "sage/internal/workload.(*SensorGen).nextInto", "sage/internal/core.(*Engine).stageWindow"}},
		{"apiv1", []string{"encoding/json.Marshal", "sage/api/v1.EncodeRoster", "main.serveRun"}},
		{"loadgen", []string{"sort.Slice", "sage/internal/stream.(*KeyedAgg).Result", "main.checkAggUnit", "main.aggRun"}},
		{"loadgen", []string{"sort.Slice", "sage/internal/stream.(*KeyedAgg).Result", "sage/benchmark.checkAggUnit"}},
		{"loadgen", []string{"net/http.(*Client).do", "main.(*apiClient).do", "main.serveRun.func2"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"core", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "sage/internal/core.(*Engine).shipResume"}},
		{"other", []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}},
		{"other", []string{"sage/internal/introspect.Profiles"}},
		{"daemon", []string{"encoding/json.(*Encoder).Encode", "sage/internal/daemon.writeJSON", "net/http.(*conn).serve"}},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 4, 4, 5, 7})
	if q1 != 3 || q2 != 4 || q3 != 6 {
		t.Errorf("quartiles(2 4 4 5 7) = %v %v %v, want 3 4 6", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "events_per_s", better: "higher", bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		d     metricDef
		other []float64
		want  string
	}{
		{lower, []float64{1.01, 1.00, 0.99, 1.02, 1.00}, "unchanged"},
		{lower, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, "unchanged"}, // worse, within the bound
		{lower, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "regressed"},
		{lower, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "improved"},
		{lower, []float64{0.95, 0.96, 0.94, 0.95, 0.97}, "unchanged"}, // better, within the bound
		{lower, []float64{0.80, 1.30, 0.70, 1.00, 1.20}, "unresolved"},
		{higher, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "regressed"},
		{higher, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "improved"},
	} {
		if _, got := verdict(c.d, base, c.other); got != c.want {
			t.Errorf("%s %v: verdict %q, want %q", c.d.name, c.other, got, c.want)
		}
	}
	exact := metricDef{name: "sim_cost_usd", better: "lower", bound: 0.05}
	if _, got := verdict(exact, []float64{3, 3, 3}, []float64{3, 3, 3}); got != "unchanged" {
		t.Errorf("identical exact values: %q", got)
	}
	if _, got := verdict(exact, []float64{3, 3, 3}, []float64{2.8, 2.8, 2.8}); got != "improved" {
		t.Errorf("an exact value that drops by more than the bound: %q", got)
	}
}

func TestPromTotals(t *testing.T) {
	text := []byte(`# HELP sage_probes_total monitoring probes taken
# TYPE sage_probes_total counter
sage_probes_total{from="A",to="B"} 3
sage_probes_total{from="B",to="A"} 4
# TYPE sage_transfer_seconds histogram
sage_transfer_seconds_bucket{from="A",to="B",le="+Inf"} 2
sage_transfer_seconds_sum{from="A",to="B"} 1.5
sage_transfer_seconds_count{from="A",to="B"} 2
sage_jobs_total 1
`)
	sums, series := promTotals(text)
	if sums["sage_probes_total"] != 7 || sums["sage_jobs_total"] != 1 || sums["sage_transfer_seconds_sum"] != 1.5 {
		t.Errorf("sums = %v", sums)
	}
	if series != 5 {
		t.Errorf("series = %d, want 5 (buckets skipped)", series)
	}
}
