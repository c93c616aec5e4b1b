package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/core"
)

const jobJSON = `{
  "name": "demo",
  "seed": 7,
  "workers": {"Medium": 6},
  "warmup": "2m",
  "job": {
    "sources": [
      {"site": "NEU", "rate": 300, "keys": 50, "skew": 1.3},
      {"site": "WEU", "rate": 300, "diurnal_amplitude": 0.5}
    ],
    "sink": "NUS",
    "window": "30s",
    "agg": "mean",
    "strategy": "envaware",
    "lanes": 2,
    "intrusiveness": 1,
    "duration": "3m"
  },
  "injections": [
    {"at": "1m", "kind": "link_scale", "from": "NEU", "to": "NUS", "factor": 0.5},
    {"at": "90s", "kind": "kill_node", "from": "NEU", "node": 0},
    {"at": "2m", "kind": "restore_node", "from": "NEU", "node": 0}
  ]
}`

const gatherJSON = `{
  "name": "gather-demo",
  "gather": {
    "sites": ["NEU", "WEU"],
    "files": 20,
    "file_bytes": 1048576,
    "sink": "NUS",
    "strategy": "envaware",
    "lanes": 3,
    "intrusiveness": 1
  }
}`

func TestLoadJob(t *testing.T) {
	s, err := Load(strings.NewReader(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || s.Seed != 7 {
		t.Fatalf("scenario = %+v", s)
	}
	if time.Duration(s.Job.Window) != 30*time.Second {
		t.Fatalf("window = %v", s.Job.Window)
	}
	if len(s.Injections) != 3 {
		t.Fatalf("injections = %d", len(s.Injections))
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"name":"x","typo_field":1}`)); err == nil {
		t.Fatal("unknown field should be rejected")
	}
}

func TestValidation(t *testing.T) {
	cases := []string{
		`{"name":"none"}`, // neither job nor gather
		`{"name":"both","job":{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","duration":"1m"},"gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"}}`,
		`{"name":"badagg","job":{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"median","strategy":"envaware","duration":"1m"}}`,
		`{"name":"badstrat","job":{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"warp","duration":"1m"}}`,
		`{"name":"badclass","workers":{"Tiny":1},"gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"}}`,
		`{"name":"badinj","gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"},"injections":[{"at":"1s","kind":"meteor"}]}`,
		`{"name":"baddur","job":{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"xx","agg":"mean","strategy":"envaware","duration":"1m"}}`,
		`{"name":"negrate","job":{"sources":[{"site":"NEU","rate":-1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","duration":"1m"}}`,
		`{"name":"negkeys","job":{"sources":[{"site":"NEU","rate":1,"keys":-3}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","duration":"1m"}}`,
		`{"name":"neglanes","jobs":[{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","lanes":-2,"duration":"1m"}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := apiv1.Duration(90 * time.Second)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshal = %s", b)
	}
	var back apiv1.Duration
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip %v -> %v", d, back)
	}
}

func TestRunJobScenario(t *testing.T) {
	s, err := Load(strings.NewReader(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Gather != nil {
		t.Fatal("job scenario should produce a job report")
	}
	if res.Report.Windows == 0 {
		t.Fatal("no windows completed")
	}
	if res.Report.TotalEvents == 0 {
		t.Fatal("no events processed")
	}
}

func TestRunGatherScenario(t *testing.T) {
	s, err := Load(strings.NewReader(gatherJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gather == nil {
		t.Fatal("gather scenario should produce a gather report")
	}
	if res.Gather.TotalBytes != 2*20*1048576 {
		t.Fatalf("bytes = %d", res.Gather.TotalBytes)
	}
}

func TestTopologyAndWeatherPresets(t *testing.T) {
	js := `{
	  "name": "world-run", "topology": "world", "weather": "rough",
	  "cross_traffic": "2m",
	  "gather": {"sites": ["SEA", "SBR"], "files": 5, "file_bytes": 1048576,
	             "sink": "NUS", "strategy": "envaware", "lanes": 2, "intrusiveness": 1}
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gather == nil || len(res.Gather.Sites) != 2 {
		t.Fatalf("world gather = %+v", res.Gather)
	}
}

func TestInvalidPresetsRejected(t *testing.T) {
	for _, js := range []string{
		`{"name":"x","topology":"mars","gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"}}`,
		`{"name":"x","weather":"apocalyptic","gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"}}`,
	} {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Fatalf("preset should be rejected: %s", js)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() float64 {
		s, err := Load(strings.NewReader(jobJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.TotalCost
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic scenario: %v vs %v", a, b)
	}
}

const resilientJobJSON = `{
  "name": "resilient-demo",
  "seed": 9,
  "workers": {"Medium": 6},
  "warmup": "1m",
  "job": {
    "sources": [
      {"site": "NEU", "rate": 200},
      {"site": "WEU", "rate": 200}
    ],
    "sink": "NUS",
    "window": "30s",
    "agg": "mean",
    "strategy": "envaware",
    "lanes": 2,
    "intrusiveness": 1,
    "duration": "5m",
    "checkpoint_interval": "30s"
  },
  "injections": [
    {"at": "65s", "kind": "kill_site", "from": "NEU"},
    {"at": "125s", "kind": "restore_site", "from": "NEU"}
  ]
}`

func TestSiteInjectionKindsValidate(t *testing.T) {
	if _, err := Load(strings.NewReader(resilientJobJSON)); err != nil {
		t.Fatal(err)
	}
	// Site-level injections without a site are rejected.
	bad := `{"name":"x","gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"},"injections":[{"at":"1s","kind":"kill_site"}]}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("kill_site without a site accepted")
	}
}

// TestInjectionsNameTheWorld rejects injections that name a link or site the
// scenario's topology does not have, and node injections past the worker
// pool it deploys at every site: a link_scale on a missing link panics in
// netsim when it fires, and a kill or restore of a missing site or node does
// nothing.
func TestInjectionsNameTheWorld(t *testing.T) {
	const roster = `{"name":"x","topology":%q,%s"jobs":[{"name":"a","sources":[{"site":"NEU","rate":100}],"sink":"NUS","window":"30s","agg":"sum","strategy":"direct","duration":"1m"}],"injections":[%s]}`
	for _, tc := range []struct {
		topology, workers, injection string
		ok                           bool
	}{
		{"", "", `{"at":"30s","kind":"link_scale","from":"NEU","to":"NUS","factor":0.5}`, true},
		{"", "", `{"at":"30s","kind":"link_scale","from":"NEU","to":"NOPE","factor":0.5}`, false},
		{"", "", `{"at":"30s","kind":"link_scale","from":"NEU","to":"NEU","factor":0.5}`, false},
		{"", "", `{"at":"30s","kind":"link_scale","from":"NEU","to":"SEA","factor":0.5}`, false},
		{"world", "", `{"at":"30s","kind":"link_scale","from":"NEU","to":"SEA","factor":0.5}`, true},
		{"", "", `{"at":"30s","kind":"kill_site","from":"NOPE"}`, false},
		{"", "", `{"at":"30s","kind":"restore_site","from":"NOPE"}`, false},
		{"", "", `{"at":"30s","kind":"kill_node","from":"NOPE","node":0}`, false},
		{"", "", `{"at":"30s","kind":"restore_node","from":"NOPE","node":0}`, false},
		{"", "", `{"at":"30s","kind":"kill_node","from":"NEU","node":-1}`, false},
		{"", "", `{"at":"30s","kind":"kill_node","from":"NEU","node":1}`, true},
		// The default pool is eight Medium VMs per site.
		{"", "", `{"at":"30s","kind":"kill_node","from":"NEU","node":7}`, true},
		{"", "", `{"at":"30s","kind":"kill_node","from":"NEU","node":8}`, false},
		{"", "", `{"at":"30s","kind":"restore_node","from":"NEU","node":8}`, false},
		{"", `"workers":{"Small":2,"XLarge":1},`, `{"at":"30s","kind":"restore_node","from":"NEU","node":2}`, true},
		{"", `"workers":{"Small":2,"XLarge":1},`, `{"at":"30s","kind":"kill_node","from":"NEU","node":3}`, false},
		// Site kinds read no node.
		{"", "", `{"at":"30s","kind":"kill_site","from":"NEU","node":9}`, true},
		{"", "", `{"at":"30s","kind":"restore_site","from":"NEU","node":-1}`, true},
	} {
		_, err := Load(strings.NewReader(fmt.Sprintf(roster, tc.topology, tc.workers, tc.injection)))
		if (err == nil) != tc.ok {
			t.Errorf("topology %q, %sinjection %s: err = %v, want ok=%v", tc.topology, tc.workers, tc.injection, err, tc.ok)
		}
	}
}

func TestRunResilientScenarioRecoversOutage(t *testing.T) {
	s, err := Load(strings.NewReader(resilientJobJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rm := res.Report.Resilience
	if rm == nil {
		t.Fatal("checkpoint_interval did not enable resilience")
	}
	if rm.Failures < 1 || rm.Recoveries < 1 {
		t.Fatalf("outage not detected/recovered: %+v", rm)
	}
	if rm.Checkpoints == 0 {
		t.Fatal("no checkpoints taken")
	}
	if res.Report.Incomplete != 0 {
		t.Fatalf("%d windows incomplete after recovery", res.Report.Incomplete)
	}
}

func TestApplyInjectionPanicsOnUnhandledKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unhandled injection kind must panic")
		}
	}()
	applyInjection(nil, apiv1.Injection{Kind: "meteor"})
}

const multiJobJSON = `{
  "name": "multi-demo",
  "seed": 3,
  "weather": "calm",
  "workers": {"Medium": 6},
  "scheduler": {"max_concurrent": 2, "policy": "fair"},
  "jobs": [
    {"name": "a0", "tenant": "a", "arrival": "0s",
     "sources": [{"site": "NEU", "rate": 400}], "sink": "NUS",
     "window": "30s", "agg": "sum", "strategy": "direct", "lanes": 2,
     "ship_raw": true, "duration": "2m"},
    {"name": "a1", "tenant": "a", "arrival": "5s",
     "sources": [{"site": "WEU", "rate": 400}], "sink": "NUS",
     "window": "30s", "agg": "sum", "strategy": "direct", "lanes": 2,
     "ship_raw": true, "duration": "2m"},
    {"name": "b0", "tenant": "b", "arrival": "10s",
     "sources": [{"site": "SUS", "rate": 300, "keys": 40, "skew": 1.2}],
     "sink": "NUS", "window": "30s", "agg": "mean", "strategy": "envaware",
     "lanes": 2, "duration": "90s"}
  ]
}`

func TestRunMultiJobScenario(t *testing.T) {
	s, err := Load(strings.NewReader(multiJobJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Multi == nil || res.Report != nil || res.Gather != nil {
		t.Fatal("jobs scenario should produce a multi-job report only")
	}
	m := res.Multi
	if len(m.Jobs) != 3 || m.Policy != "fair" || m.MaxConcurrent != 2 {
		t.Fatalf("multi report = %+v", m)
	}
	for _, j := range m.Jobs {
		if j.Report == nil || j.Report.Windows == 0 || j.Report.TotalEvents == 0 {
			t.Fatalf("job %s did not run: %+v", j.Name, j.Report)
		}
		if j.Finished <= j.Admitted || j.Admitted < j.Arrived {
			t.Fatalf("job %s has inconsistent timing: %+v", j.Name, j)
		}
	}
}

func TestMultiJobScenarioDeterminism(t *testing.T) {
	run := func() uint64 {
		s, err := Load(strings.NewReader(multiJobJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res.Multi.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic multi-job scenario: %016x vs %016x", a, b)
	}
}

// TestRunShardsOption: Run hands its extra options to the engine it builds,
// so a pinned shard count reaches a roster run, and one shard and four give
// the same multi-job report.
func TestRunShardsOption(t *testing.T) {
	run := func(shards int) uint64 {
		s, err := Load(strings.NewReader(multiJobJSON))
		if err != nil {
			t.Fatal(err)
		}
		got := -1
		probe := func(o *core.Options) { got = o.Shards }
		res, err := Run(s, core.WithShards(shards), probe)
		if err != nil {
			t.Fatal(err)
		}
		if got != shards {
			t.Fatalf("engine built with Shards %d, want %d", got, shards)
		}
		return res.Multi.Fingerprint()
	}
	if one, four := run(1), run(4); one != four {
		t.Fatalf("roster fingerprint %016x at 1 shard, %016x at 4", one, four)
	}
}

func TestMultiJobValidation(t *testing.T) {
	cases := []string{
		// jobs alongside a single job
		`{"name":"x","job":{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","duration":"1m"},"jobs":[{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","duration":"1m"}]}`,
		// scheduler without a roster
		`{"name":"x","scheduler":{"policy":"fair"},"gather":{"sites":["NEU"],"files":1,"file_bytes":1,"sink":"NUS","strategy":"envaware"}}`,
		// unknown policy
		`{"name":"x","scheduler":{"policy":"lifo"},"jobs":[{"sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"mean","strategy":"envaware","duration":"1m"}]}`,
		// bad roster job
		`{"name":"x","jobs":[{"name":"bad","sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"30s","agg":"median","strategy":"envaware","duration":"1m"}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

// TestCheckpointedRosterRuns: checkpoint_interval composes with the
// scheduler — a roster of checkpointed jobs loads, runs under preemption
// through a source-site outage, takes checkpoints and recovers every window.
func TestCheckpointedRosterRuns(t *testing.T) {
	const roster = `{
  "name": "resilient-roster",
  "weather": "calm",
  "scheduler": {"max_concurrent": 2, "preempt": true},
  "jobs": [
    {"name": "low", "sources": [{"site": "NEU", "rate": 200}, {"site": "WEU", "rate": 200}],
     "sink": "NUS", "window": "30s", "agg": "mean", "strategy": "envaware",
     "duration": "4m", "checkpoint_interval": "15s"},
    {"name": "high", "priority": 1, "arrival": "30s",
     "sources": [{"site": "SUS", "rate": 200}], "sink": "NUS", "window": "30s",
     "agg": "mean", "strategy": "envaware", "duration": "1m", "checkpoint_interval": "30s"}
  ],
  "injections": [
    {"at": "65s", "kind": "kill_site", "from": "NEU"},
    {"at": "125s", "kind": "restore_site", "from": "NEU"}
  ]
}`
	s, err := Load(strings.NewReader(roster))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Multi.Jobs {
		rm := j.Report.Resilience
		if rm == nil || rm.Checkpoints == 0 {
			t.Fatalf("job %s took no checkpoints under the scheduler: %+v", j.Name, rm)
		}
		if j.Report.Incomplete != 0 {
			t.Fatalf("job %s: %d windows incomplete", j.Name, j.Report.Incomplete)
		}
	}
	low := res.Multi.Jobs[0]
	if low.Preemptions == 0 || low.Report.Resilience.Recoveries == 0 {
		t.Fatalf("low job: preemptions=%d resilience=%+v — want a hold and a recovery",
			low.Preemptions, low.Report.Resilience)
	}
}
