package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// perfAllocCaps are the allocation budgets of the baseline: the hot paths
// that allocate nothing per op in steady state, and one ceiling.
var perfAllocCaps = []struct {
	key    string
	allocs int64
}{
	{"netsim/Reallocate/flows=10", 0},
	{"netsim/Reallocate/flows=100", 0},
	{"netsim/Reallocate/flows=1000", 0},
	{"netsim/RoughWorldEvent/sites=60", 0},
	// Churn stays allocation-light: per-event map or sort allocation would
	// put thousands here.
	{"netsim/FlowChurn/flows=1000", 100},
	{"stream/NormFloat64/polar", 0},
	{"stream/NormFloat64/ziggurat", 0},
	{"stream/KeyDraw/zipf", 0},
	{"stream/KeyDraw/uniform", 0},
	{"stream/SensorGen/keys=100", 0},
	{"stream/SensorGen/keys=1000", 0},
	{"stream/SensorGen/keys=20000/uniform", 0},
	// A fold takes its aggregate from a pool and puts it back: no cell
	// table, no result slice.
	{"stream/Fold/keys=100", 0},
	{"stream/Fold/keys=1000", 0},
	{"stream/Fold/keys=20000/uniform", 0},
	{"stream/Fold/keys=20000/uniform/min", 0},
	{"stream/StreamPipeline/keys=100", 0},
	{"stream/StreamPipeline/keys=1000", 0},
	{"obs/CounterInc", 0},
	{"obs/GaugeSet", 0},
	{"obs/HistogramObserve", 0},
	{"obs/DisabledCounterInc", 0},
	{"obs/TimelineRecord", 0},
	{"scale/MillionKeyPipeline", 0},
	{"route/ReplanChurn/sites=500/dirty=1", 0},
	{"route/ReplanChurn/sites=500/dirty=10", 0},
	{"route/ReplanChurn/sites=500/dirty=100", 0},
	{"route/ReplanRepair/sites=500", 0},
	{"transfer/TransferDirect/chunks=100", 0},
	{"transfer/TransferDirect/chunks=1000", 0},
	{"transfer/TransferDirect/chunks=10000", 0},
	{"transfer/TransferEnvAware/chunks=10000", 0},
	{"transfer/TransferMultipathDynamic/chunks=10000", 0},
	{"sched/SchedDispatch/jobs=16", 0},
}

// The transfer executor's cost immediately before its pooled, closure-free
// rewrite, on the same diamond rig: ≈ 16 allocations a chunk end to end. The
// old executor no longer exists to benchmark, so the reduction is measured
// against this constant.
const preRewriteDirect10kAllocs = 159868

// perfRatios are the budgets that compare rows of one recording, each in
// the layer whose rows it reads. Each returns the number it derives and
// whether the number is within budget.
var perfRatios = []struct {
	layer, name string
	hold        func(rows map[string]PerfResult) (float64, bool)
}{
	{"stream", "ziggurat ≤ ½ polar", func(rows map[string]PerfResult) (float64, bool) {
		v := rows["stream/NormFloat64/ziggurat"].NsPerOp / rows["stream/NormFloat64/polar"].NsPerOp
		return v, v <= 0.5
	}},
	// A uniform key is a remainder and a Zipf key an alias-table lookup;
	// a remainder by hardware divide made the uniform draw ≈ 1.5× the Zipf.
	{"stream", "uniform key draw ≤ 1.3× Zipf key draw", func(rows map[string]PerfResult) (float64, bool) {
		v := rows["stream/KeyDraw/uniform"].NsPerOp / rows["stream/KeyDraw/zipf"].NsPerOp
		return v, v <= 1.3
	}},
	// The sum loop has no data-dependent step; an extreme loop has the
	// compare. A sum fold as dear as the Min fold has grown one.
	{"stream", "uniform Mean fold < Min fold", func(rows map[string]PerfResult) (float64, bool) {
		v := rows["stream/Fold/keys=20000/uniform"].NsPerOp /
			rows["stream/Fold/keys=20000/uniform/min"].NsPerOp
		return v, v < 1
	}},
	{"route", "FromScratchReplan/sites=500 ≥ 10× ReplanChurn/sites=500/dirty=10", func(rows map[string]PerfResult) (float64, bool) {
		v := rows["route/FromScratchReplan/sites=500"].NsPerOp / rows["route/ReplanChurn/sites=500/dirty=10"].NsPerOp
		return v, v >= 10
	}},
	{"transfer", "pre-rewrite allocs ÷ TransferDirect/chunks=10000 allocs ≥ 5", func(rows map[string]PerfResult) (float64, bool) {
		v := float64(preRewriteDirect10kAllocs) / float64(max(1, rows["transfer/TransferDirect/chunks=10000"].AllocsPerOp))
		return v, v >= 5
	}},
}

// perfLayers are the row-key prefixes of the baseline, one per layer.
var perfLayers = []string{"netsim", "stream", "obs", "scale", "route", "transfer", "sched"}

// inLayer reports whether key is a row of layer; every key is in layer "".
func inLayer(key, layer string) bool {
	return layer == "" || strings.HasPrefix(key, layer+"/")
}

// checkPerf holds a recording to the baseline: the host stamped, exactly the
// rows of perfRows with a positive time each, and every budget. A non-empty
// layer narrows the rows and budgets to that layer's. Each failure names what
// it broke.
func checkPerf(p Perf, layer string) error {
	var errs []error
	if p.GoVersion == "" || p.GOARCH == "" || p.Cores < 1 || p.GOMAXPROCS < 1 {
		errs = append(errs, fmt.Errorf("host not stamped: %q %q, %d cores, GOMAXPROCS %d",
			p.GoVersion, p.GOARCH, p.Cores, p.GOMAXPROCS))
	}
	inTable := make(map[string]bool, len(perfRows))
	for _, row := range perfRows {
		inTable[row.key] = true
		if !inLayer(row.key, layer) {
			continue
		}
		if r, ok := p.Rows[row.key]; !ok || !(r.NsPerOp > 0) {
			errs = append(errs, fmt.Errorf("row %s missing or without a time: %+v", row.key, r))
		}
	}
	for key := range p.Rows {
		if inLayer(key, layer) && !inTable[key] {
			errs = append(errs, fmt.Errorf("row %s is not in the row table", key))
		}
	}
	for _, c := range perfAllocCaps {
		if !inLayer(c.key, layer) {
			continue
		}
		if a := p.Rows[c.key].AllocsPerOp; a > c.allocs {
			errs = append(errs, fmt.Errorf("budget %s allocs/op ≤ %d: %d", c.key, c.allocs, a))
		}
	}
	for _, r := range perfRatios {
		if layer != "" && r.layer != layer {
			continue
		}
		if v, ok := r.hold(p.Rows); !ok {
			errs = append(errs, fmt.Errorf("budget %s: %.3g", r.name, v))
		}
	}
	return errors.Join(errs...)
}

// committedPerf reads the committed BENCH.json.
func committedPerf(t *testing.T) Perf {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		t.Fatalf("missing baseline (record with `go run ./cmd/sagebench -perf`): %v", err)
	}
	var p Perf
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("BENCH.json does not parse: %v", err)
	}
	return p
}

// TestPerfBaseline holds the committed BENCH.json to the row table and every
// budget whose outcome is a property of the code: allocations, bytes, and
// ratios between rows of the one recording. Absolute times are recorded, not
// budgeted: the shared reference host moves them by more than any ceiling
// could allow (DESIGN.md, "Perf baseline").
func TestPerfBaseline(t *testing.T) {
	if err := checkPerf(committedPerf(t), ""); err != nil {
		t.Fatal(err)
	}
}

// checkPerfLayer holds the committed BENCH.json to one layer's rows and
// budgets, so a failure names the layer that regressed.
func checkPerfLayer(t *testing.T, layer string) {
	t.Helper()
	p := committedPerf(t)
	if err := checkPerf(p, layer); err != nil {
		t.Fatal(err)
	}
	for key := range p.Rows {
		if inLayer(key, layer) {
			return
		}
	}
	t.Fatalf("no %s rows in BENCH.json", layer)
}

// The per-layer views of TestPerfBaseline, one for each layer of the row
// table: netsim, stream, obs, scale, route, transfer and sched.
func TestPerfBaselineFileValid(t *testing.T)         { checkPerfLayer(t, "netsim") }
func TestStreamPerfBaselineFileValid(t *testing.T)   { checkPerfLayer(t, "stream") }
func TestObsPerfBaselineFileValid(t *testing.T)      { checkPerfLayer(t, "obs") }
func TestScalePerfBaselineFileValid(t *testing.T)    { checkPerfLayer(t, "scale") }
func TestRoutePerfBaselineFileValid(t *testing.T)    { checkPerfLayer(t, "route") }
func TestTransferPerfBaselineFileValid(t *testing.T) { checkPerfLayer(t, "transfer") }
func TestSchedPerfBaselineFileValid(t *testing.T)    { checkPerfLayer(t, "sched") }

// TestPerfLayersCoverRowTable requires every row of the table to belong to
// one of perfLayers, so the per-layer views together check every row.
func TestPerfLayersCoverRowTable(t *testing.T) {
	for _, row := range perfRows {
		if !slices.ContainsFunc(perfLayers, func(l string) bool { return inLayer(row.key, l) }) {
			t.Errorf("row %s is in no layer of %v", row.key, perfLayers)
		}
	}
	for _, r := range perfRatios {
		if !slices.Contains(perfLayers, r.layer) {
			t.Errorf("ratio %q is in unknown layer %q", r.name, r.layer)
		}
	}
}

// TestPerfBudgetsRejectDoctoredRows feeds checkPerf a copy of the committed
// recording doctored to break one budget at a time, and requires the failure
// to name that budget.
func TestPerfBudgetsRejectDoctoredRows(t *testing.T) {
	type doctored struct {
		budget string
		doctor func(p *Perf)
	}
	set := func(key string, f func(rows map[string]PerfResult, r *PerfResult)) func(*Perf) {
		return func(p *Perf) {
			r := p.Rows[key]
			f(p.Rows, &r)
			p.Rows[key] = r
		}
	}
	cases := []doctored{
		{"host not stamped", func(p *Perf) { p.Cores = 0 }},
		{"row netsim/Reallocate/flows=10 missing", func(p *Perf) { delete(p.Rows, "netsim/Reallocate/flows=10") }},
		{"row sched/SchedDispatch/jobs=16 missing", set("sched/SchedDispatch/jobs=16",
			func(_ map[string]PerfResult, r *PerfResult) { r.NsPerOp = 0 })},
		{"row netsim/Reallocate/flows=10000 is not in the row table", set("netsim/Reallocate/flows=10000",
			func(_ map[string]PerfResult, r *PerfResult) { r.NsPerOp = 1 })},
		{"budget ziggurat ≤ ½ polar", set("stream/NormFloat64/ziggurat",
			func(rows map[string]PerfResult, r *PerfResult) { r.NsPerOp = rows["stream/NormFloat64/polar"].NsPerOp })},
		{"budget uniform key draw ≤ 1.3× Zipf key draw", set("stream/KeyDraw/uniform",
			func(rows map[string]PerfResult, r *PerfResult) { r.NsPerOp = 1.5 * rows["stream/KeyDraw/zipf"].NsPerOp })},
		{"budget uniform Mean fold < Min fold", set("stream/Fold/keys=20000/uniform",
			func(rows map[string]PerfResult, r *PerfResult) {
				r.NsPerOp = 2 * rows["stream/Fold/keys=20000/uniform/min"].NsPerOp
			})},
		{"budget FromScratchReplan/sites=500 ≥ 10×", set("route/FromScratchReplan/sites=500",
			func(rows map[string]PerfResult, r *PerfResult) {
				r.NsPerOp = 5 * rows["route/ReplanChurn/sites=500/dirty=10"].NsPerOp
			})},
		{"budget pre-rewrite allocs ÷ TransferDirect/chunks=10000 allocs ≥ 5", set("transfer/TransferDirect/chunks=10000",
			func(_ map[string]PerfResult, r *PerfResult) { r.AllocsPerOp = preRewriteDirect10kAllocs / 2 })},
	}
	for _, c := range perfAllocCaps {
		cases = append(cases, doctored{fmt.Sprintf("budget %s allocs/op ≤ %d", c.key, c.allocs),
			set(c.key, func(_ map[string]PerfResult, r *PerfResult) { r.AllocsPerOp = c.allocs + 1 })})
	}

	base := committedPerf(t)
	if err := checkPerf(base, ""); err != nil {
		t.Fatalf("the committed recording itself fails: %v", err)
	}
	budgets := 0
	for _, c := range cases {
		p := base
		p.Rows = maps.Clone(base.Rows)
		c.doctor(&p)
		if err := checkPerf(p, ""); err == nil || !strings.Contains(err.Error(), c.budget) {
			t.Errorf("doctored for %q: the check returned %v", c.budget, err)
		}
		// Some per-layer view must name the break too.
		if !slices.ContainsFunc(perfLayers, func(l string) bool {
			err := checkPerf(p, l)
			return err != nil && strings.Contains(err.Error(), c.budget)
		}) {
			t.Errorf("doctored for %q: no per-layer check names it", c.budget)
		}
		if strings.HasPrefix(c.budget, "budget ") {
			budgets++
		}
	}
	if want := len(perfAllocCaps) + len(perfRatios); budgets != want {
		t.Errorf("%d budgets doctored, the check holds %d", budgets, want)
	}
}
