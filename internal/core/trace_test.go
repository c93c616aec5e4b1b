package core

import (
	"strings"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/trace"
	"sage/internal/transfer"
	"sage/internal/workload"

	"sage/internal/stream"
)

// traced returns an observer that feeds only rec.
func traced(rec *trace.Recorder) *obs.Observer {
	return &obs.Observer{Subscribers: []obs.Subscriber{rec}}
}

func TestEngineTraceTimeline(t *testing.T) {
	rec := trace.New(10000)
	e := NewEngine(WithOptions(Options{
		Seed: 51,
		Net:  netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Obs:  traced(rec),
	}))
	e.DeployEverywhere(cloud.Medium, 6)
	job := JobSpec{
		Sources:  []SourceSpec{{Site: cloud.NorthEU, Rate: workload.ConstantRate(500)}},
		Sink:     cloud.NorthUS,
		Window:   30 * time.Second,
		Agg:      stream.Mean,
		Strategy: transfer.EnvAware,
		Lanes:    2,
		Intr:     1,
	}
	rep, err := e.Run(job, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	starts := rec.Filter(trace.TransferStart)
	dones := rec.Filter(trace.TransferDone)
	windows := rec.Filter(trace.WindowComplete)
	if len(starts) != 6 || len(dones) != 6 {
		t.Fatalf("transfer events = %d/%d, want 6/6", len(starts), len(dones))
	}
	if len(windows) != rep.Windows {
		t.Fatalf("window events = %d, report windows = %d", len(windows), rep.Windows)
	}
	// Every done must carry the achieved duration and follow its start.
	for i, d := range dones {
		if d.Value <= 0 {
			t.Fatalf("done %d without duration: %+v", i, d)
		}
		if d.At < starts[i].At {
			t.Fatal("done before start")
		}
		if d.Site != "NEU" || d.Peer != "NUS" {
			t.Fatalf("wrong endpoints: %+v", d)
		}
	}
	// The timeline serializes.
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"window_complete"`) {
		t.Fatal("JSONL missing window events")
	}
}

func TestEngineTraceRecordsReplans(t *testing.T) {
	rec := trace.New(10000)
	e := NewEngine(WithOptions(Options{
		Seed: 52,
		Net:  netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Obs:  traced(rec),
	}))
	e.DeployEverywhere(cloud.Medium, 8)
	e.Sched.RunFor(time.Minute)
	var done bool
	_, err := e.Mgr.Transfer(transfer.Request{
		From: cloud.NorthEU, To: cloud.NorthUS, Size: 1 << 30,
		Strategy: transfer.WidestDynamic, Lanes: 2, Intr: 1,
	}, func(transfer.Result) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	for !done {
		e.Sched.RunFor(time.Minute)
	}
	if len(rec.Filter(trace.Replan)) == 0 {
		t.Fatal("dynamic transfer produced no replan events")
	}
}
