package bench

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/sched"
	"sage/internal/stream"
	"sage/internal/trace"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// The window-path matrix: {plain, resilient under a kill/restore schedule} ×
// {1, 4 shards} × {single Engine.Run, 3-job sched roster with preemption on}.
// Every cell runs the one stage → commit window path; the properties below
// are what "the features compose" means.

const (
	matrixWindow = 20 * time.Second
	matrixWarmup = time.Minute // a multiple of the window: jobs start on the grid
)

type matrixKind struct {
	name      string
	resilient bool
}

var matrixKinds = []matrixKind{
	{name: "plain"},
	{name: "resilient", resilient: true},
}

// matrixEngine builds a calm 6-site world; with fail set, NEU is down from
// 45 s to 100 s into the run (inside the roster's preemption hold) and WEU
// from 152 s to 200 s (after it, catching transfers in flight).
func matrixEngine(shards int, fail bool, ob *obs.Observer) *core.Engine {
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:    5,
		Net:     netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Monitor: monitor.Options{Interval: 30 * time.Second},
		Shards:  shards,
		Obs:     ob,
	}))
	e.DeployEverywhere(cloud.Medium, 8)
	e.Sched.RunFor(matrixWarmup)
	if fail {
		setSite := func(site cloud.SiteID, at time.Duration, up bool) {
			e.Sched.After(at, func() {
				for _, n := range e.Mgr.Pool(site) {
					if up {
						e.Net.RestoreNode(n)
					} else {
						e.Net.KillNode(n)
					}
				}
			})
		}
		setSite(cloud.NorthEU, 45*time.Second, false)
		setSite(cloud.NorthEU, 100*time.Second, true)
		setSite(cloud.WestEU, 152*time.Second, false)
		setSite(cloud.WestEU, 200*time.Second, true)
	}
	return e
}

// matrixJob is a raw-shipping job (seconds-long transfers, so preemption and
// site death catch them in flight) whose answer is still the merged keyed
// aggregate.
func matrixJob(k matrixKind, sites ...cloud.SiteID) core.JobSpec {
	js := core.JobSpec{
		Sink:     cloud.NorthUS,
		Window:   matrixWindow,
		Agg:      stream.Mean,
		Strategy: transfer.EnvAware,
		Lanes:    2,
		ShipRaw:  true,
	}
	for _, s := range sites {
		js.Sources = append(js.Sources, core.SourceSpec{
			Site: s, Rate: workload.ConstantRate(300), EventBytes: 2000,
		})
	}
	if k.resilient {
		// The interval divides the window, so a checkpoint follows every
		// window commit and recovery restores exactly what the site lost.
		js.Resilience = &resilience.Config{CheckpointInterval: matrixWindow / 2}
	}
	return js
}

// matrixCell is one cell's observable outcome.
type matrixCell struct {
	trace  []byte
	fp     string
	rounds uint64
	// answers holds each job's Global.Result().
	answers [][]stream.KV
}

// traced returns an observer that feeds only rec.
func traced(rec *trace.Recorder) *obs.Observer {
	return &obs.Observer{Subscribers: []obs.Subscriber{rec}}
}

func reportFP(name string, r *core.Report) string {
	fp := fmt.Sprintf("%s windows=%d incomplete=%d events=%d bytes=%d cost=%.9f egress=%.9f vms=%.6f lat=%+v res=%+v\n",
		name, r.Windows, r.Incomplete, r.TotalEvents, r.TotalBytes, r.TotalCost,
		r.EgressCost, r.VMSeconds, r.LatencySummary, r.Resilience)
	for _, sw := range r.SiteWindows {
		fp += fmt.Sprintf("  %s %v %d %d %d %d %v %.9f\n",
			sw.Site, sw.Window, sw.Events, sw.Keys, sw.Bytes, sw.Lanes, sw.Transfer, sw.Cost)
	}
	return fp
}

func runMatrixSingle(t *testing.T, k matrixKind, shards int, fail bool) matrixCell {
	t.Helper()
	rec := trace.New(1 << 18)
	e := matrixEngine(shards, fail, traced(rec))
	rep, err := e.Run(matrixJob(k, cloud.NorthEU, cloud.WestEU, cloud.SouthUS), 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return finishCell(t, e, rec, reportFP("single", rep), rep)
}

func runMatrixRoster(t *testing.T, k matrixKind, shards int, fail bool) matrixCell {
	t.Helper()
	rec := trace.New(1 << 18)
	e := matrixEngine(shards, fail, traced(rec))
	fp, reps := runRoster(t, k, e)
	return finishCell(t, e, rec, fp, reps...)
}

// runRoster runs the preempting 3-job roster on e and returns its report
// fingerprint and the jobs' reports.
func runRoster(t *testing.T, k matrixKind, e *core.Engine) (string, []*core.Report) {
	t.Helper()
	s := sched.New(e, sched.Options{MaxConcurrent: 3, Preempt: true})
	roster := []sched.JobSpec{
		{Name: "low-a", Tenant: "A", Duration: 4 * time.Minute,
			Spec: matrixJob(k, cloud.NorthEU, cloud.WestEU)},
		{Name: "low-b", Tenant: "B", Duration: 3 * time.Minute,
			Spec: matrixJob(k, cloud.SouthUS, cloud.NorthEU)},
		// Arrives on the window grid, holds both low jobs' transfers while
		// NEU dies under them, and releases them after it is back.
		{Name: "high", Tenant: "C", Priority: 1, Arrival: 2 * matrixWindow,
			Duration: 4 * matrixWindow, Spec: matrixJob(k, cloud.EastUS)},
	}
	for _, j := range roster {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("multi=%016x\n", m.Fingerprint())
	var reps []*core.Report
	for _, j := range m.Jobs {
		fp += reportFP(j.Name, j.Report)
		reps = append(reps, j.Report)
	}
	if m.Jobs[0].Preemptions == 0 || m.Jobs[1].Preemptions == 0 {
		t.Fatalf("%s: low jobs were never preempted", k.name)
	}
	// Conservation: per-job attributed egress sums to the world total.
	var perJob, perSite int64
	for i := 0; i < e.Net.JobsSeen(); i++ {
		perJob += e.Net.JobEgressBytes(i)
	}
	for _, id := range e.Net.Topology().SiteIDs() {
		perSite += e.Net.EgressBytes(id)
	}
	if perJob != perSite || perJob == 0 {
		t.Fatalf("%s: per-job egress %d != per-site egress %d", k.name, perJob, perSite)
	}
	return fp, reps
}

func finishCell(t *testing.T, e *core.Engine, rec *trace.Recorder, fp string, reps ...*core.Report) matrixCell {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	c := matrixCell{trace: buf.Bytes(), fp: fp, rounds: e.ShardRounds()}
	for _, r := range reps {
		c.answers = append(c.answers, r.Global.Result())
	}
	return c
}

func sameAnswer(got, want []stream.KV) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			return fmt.Errorf("key %d = %q, want %q", i, got[i].Key, want[i].Key)
		}
		if d := math.Abs(got[i].Value - want[i].Value); d > 1e-9*math.Abs(want[i].Value) {
			return fmt.Errorf("key %q = %v, want %v", want[i].Key, got[i].Value, want[i].Value)
		}
	}
	return nil
}

func TestWindowPathMatrix(t *testing.T) {
	modes := []struct {
		name string
		run  func(*testing.T, matrixKind, int, bool) matrixCell
	}{
		{"single", runMatrixSingle},
		{"roster", runMatrixRoster},
	}
	for _, k := range matrixKinds {
		for _, mode := range modes {
			t.Run(k.name+"/"+mode.name, func(t *testing.T) {
				// Only resilient jobs survive a site death with their answer
				// intact; the plain kind runs the calm world.
				seq := mode.run(t, k, 1, k.resilient)
				par := mode.run(t, k, 4, k.resilient)
				if len(seq.trace) == 0 {
					t.Fatal("no trace recorded")
				}
				if !bytes.Equal(seq.trace, par.trace) {
					t.Errorf("trace JSONL diverges between 1 and 4 shards (%d vs %d bytes)",
						len(seq.trace), len(par.trace))
				}
				if seq.fp != par.fp {
					t.Errorf("report diverges between 1 and 4 shards:\n%s", firstDiff(seq.fp, par.fp))
				}
				if seq.rounds != 0 || par.rounds == 0 {
					t.Errorf("stage rounds: %d at 1 shard, %d at 4 — want 0 and > 0",
						seq.rounds, par.rounds)
				}
				if !k.resilient {
					return
				}
				// The recovered answer equals the unfailed run's.
				calm := mode.run(t, matrixKind{name: k.name}, 1, false)
				for j := range calm.answers {
					if len(calm.answers[j]) == 0 {
						t.Fatalf("job %d: unfailed run has an empty answer", j)
					}
					if err := sameAnswer(par.answers[j], calm.answers[j]); err != nil {
						t.Errorf("job %d: recovered answer differs from the unfailed run: %v", j, err)
					}
				}
			})
		}
	}
}
