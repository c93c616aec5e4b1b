package sched

import (
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// testEngine builds a deterministic (calm-network) engine with a warmed-up
// monitor, the standard substrate for scheduler tests.
func testEngine(seed uint64, shards int, ob *obs.Observer) *core.Engine {
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:    seed,
		Net:     netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
		Monitor: monitor.Options{Interval: 30 * time.Second},
		Shards:  shards,
	}), core.WithObservability(ob))
	e.DeployEverywhere(cloud.Medium, 8)
	e.Sched.RunFor(time.Minute)
	return e
}

// mkJob builds a raw-shipping job description: fixed lanes and Direct
// transport keep its transfer time a pure function of the network, which the
// monotonicity property test depends on.
func mkJob(name, tenant string, prio int, arrival time.Duration,
	sites []cloud.SiteID, rate float64, dur time.Duration) JobSpec {

	js := core.JobSpec{
		Sink:     cloud.NorthUS,
		Window:   20 * time.Second,
		Agg:      stream.Sum,
		Strategy: transfer.Direct,
		Lanes:    2,
		ShipRaw:  true,
	}
	for _, s := range sites {
		js.Sources = append(js.Sources, core.SourceSpec{
			Site: s, Rate: workload.ConstantRate(rate), EventBytes: 2000,
		})
	}
	return JobSpec{Name: name, Tenant: tenant, Priority: prio,
		Arrival: arrival, Duration: dur, Spec: js}
}

// testRoster is three jobs from two tenants with staggered arrivals, small
// enough for -short yet queueing under MaxConcurrent 2.
func testRoster() []JobSpec {
	return []JobSpec{
		mkJob("a0", "A", 0, 0, []cloud.SiteID{cloud.NorthEU}, 300, 60*time.Second),
		mkJob("a1", "A", 0, 5*time.Second, []cloud.SiteID{cloud.WestEU}, 300, 60*time.Second),
		mkJob("b0", "B", 0, 10*time.Second, []cloud.SiteID{cloud.SouthUS}, 200, 40*time.Second),
	}
}

func runRoster(t *testing.T, seed uint64, shards int, roster []JobSpec, opt Options) *MultiReport {
	t.Helper()
	s := New(testEngine(seed, shards, nil), opt)
	for _, j := range roster {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyPicks(t *testing.T) {
	v := View{
		Pending: []Candidate{
			{Name: "x", Tenant: "A", Order: 0, Arrived: 10, EstDuration: 90 * time.Second},
			{Name: "y", Tenant: "B", Order: 1, Arrived: 5, EstDuration: 30 * time.Second},
			{Name: "z", Tenant: "A", Order: 2, Arrived: 5, EstDuration: 60 * time.Second},
		},
		Charges: map[string]float64{"A": 0.5, "B": 2.0},
	}
	if got := (FIFO{}).Pick(v); got != 1 {
		t.Fatalf("FIFO picked %d, want 1 (earliest arrival, lowest order)", got)
	}
	if got := (FairShare{}).Pick(v); got != 2 {
		t.Fatalf("FairShare picked %d, want 2 (tenant A least charged, FIFO within A)", got)
	}
	if got := (SJF{}).Pick(v); got != 1 {
		t.Fatalf("SJF picked %d, want 1 (shortest estimate)", got)
	}
	for _, name := range PolicyNames() {
		if _, ok := ByName(name); !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown policy")
	}
}

// TestRosterCompletes is the basic end-to-end: every job runs, windows all
// arrive, queue timing is sane.
func TestRosterCompletes(t *testing.T) {
	m := runRoster(t, 1, 1, testRoster(), Options{MaxConcurrent: 2})
	if len(m.Jobs) != 3 {
		t.Fatalf("got %d job reports, want 3", len(m.Jobs))
	}
	for _, j := range m.Jobs {
		if j.Report.Windows == 0 || j.Report.Incomplete != 0 {
			t.Fatalf("job %s: windows=%d incomplete=%d", j.Name, j.Report.Windows, j.Report.Incomplete)
		}
		if j.Admitted < j.Arrived || j.Finished <= j.Admitted {
			t.Fatalf("job %s: timing arrived=%v admitted=%v finished=%v",
				j.Name, j.Arrived, j.Admitted, j.Finished)
		}
		if j.Report.EgressCost <= 0 || j.Report.EgressCost >= j.Report.TotalCost {
			t.Fatalf("job %s: egress %.4f vs total %.4f", j.Name, j.Report.EgressCost, j.Report.TotalCost)
		}
		if j.Report.VMSeconds <= 0 {
			t.Fatalf("job %s: no VM-seconds accounted", j.Name)
		}
	}
	// The third job arrives with both slots taken, so it must have queued.
	if m.Jobs[2].Wait <= 0 {
		t.Fatalf("job b0 never queued (wait %v) with MaxConcurrent 2", m.Jobs[2].Wait)
	}
}

// TestFingerprintShardInvariant pins the headline determinism property: the
// same roster under every policy produces a byte-identical MultiReport
// fingerprint at shard counts 1, 2 and 4.
func TestFingerprintShardInvariant(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, _ := ByName(name)
		var base uint64
		for i, shards := range []int{1, 2, 4} {
			m := runRoster(t, 7, shards, testRoster(), Options{MaxConcurrent: 2, Policy: pol})
			fp := m.Fingerprint()
			if i == 0 {
				base = fp
				continue
			}
			if fp != base {
				t.Fatalf("policy %s: fingerprint diverged at %d shards: %016x vs %016x",
					name, shards, fp, base)
			}
		}
	}
}

// TestFairShareAdmitsStarvedTenantSooner: tenant A floods the queue before
// tenant B's single job arrives; under FIFO B waits behind all of A, under
// fair-share B jumps ahead as soon as A has been charged once.
func TestFairShareAdmitsStarvedTenantSooner(t *testing.T) {
	roster := []JobSpec{
		mkJob("a0", "A", 0, 0, []cloud.SiteID{cloud.NorthEU}, 200, 40*time.Second),
		mkJob("a1", "A", 0, 0, []cloud.SiteID{cloud.WestEU}, 200, 40*time.Second),
		mkJob("a2", "A", 0, 0, []cloud.SiteID{cloud.EastUS}, 200, 40*time.Second),
		mkJob("b0", "B", 0, time.Second, []cloud.SiteID{cloud.SouthUS}, 200, 40*time.Second),
	}
	fifo := runRoster(t, 3, 1, roster, Options{MaxConcurrent: 1, Policy: FIFO{}})
	fair := runRoster(t, 3, 1, roster, Options{MaxConcurrent: 1, Policy: FairShare{}})
	bFIFO, bFair := fifo.Jobs[3], fair.Jobs[3]
	if bFair.Admitted >= bFIFO.Admitted {
		t.Fatalf("fair-share admitted b0 at %v, FIFO at %v — want strictly sooner",
			bFair.Admitted, bFIFO.Admitted)
	}
}

// preemptRoster is a two-minute low-priority job and a priority-5 job that
// arrives 30 s in and preempts it while it runs.
func preemptRoster() []JobSpec {
	return []JobSpec{
		mkJob("low", "L", 0, 0, []cloud.SiteID{cloud.NorthEU}, 400, 2*time.Minute),
		mkJob("high", "H", 5, 30*time.Second, []cloud.SiteID{cloud.WestEU}, 400, 40*time.Second),
	}
}

// TestPreemptionPausesLowerPriority: a high-priority job arriving mid-run
// pauses the low-priority job's transfers (ledger abort/resume) and both
// still deliver every window.
func TestPreemptionPausesLowerPriority(t *testing.T) {
	roster := preemptRoster()
	m := runRoster(t, 11, 1, roster, Options{MaxConcurrent: 2, Preempt: true})
	low, high := m.Jobs[0], m.Jobs[1]
	if low.Preemptions == 0 {
		t.Fatal("low-priority job was never preempted")
	}
	if high.Preemptions != 0 {
		t.Fatalf("high-priority job preempted %d times", high.Preemptions)
	}
	for _, j := range m.Jobs {
		if j.Report.Incomplete != 0 {
			t.Fatalf("job %s: %d incomplete windows after preemption", j.Name, j.Report.Incomplete)
		}
	}
	// Preemption must not lose data: the low job's event/window totals match
	// an unpreempted run of the same roster.
	plain := runRoster(t, 11, 1, roster, Options{MaxConcurrent: 2})
	if low.Report.Windows != plain.Jobs[0].Report.Windows ||
		low.Report.TotalEvents != plain.Jobs[0].Report.TotalEvents {
		t.Fatalf("preemption changed the low job's answer: %d/%d windows, %d/%d events",
			low.Report.Windows, plain.Jobs[0].Report.Windows,
			low.Report.TotalEvents, plain.Jobs[0].Report.TotalEvents)
	}
}

// TestStatusRowsMatchReport: a job's live status row and its report row
// come from one record. Run live through Open, the preempted job reads
// "paused" beside its preemptor; once the roster drains every Status row
// agrees with its MultiReport row, and the report is the batch Run's.
func TestStatusRowsMatchReport(t *testing.T) {
	opt := Options{MaxConcurrent: 2, Preempt: true}
	e := testEngine(11, 1, nil)
	s := New(e, opt)
	for _, j := range preemptRoster() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	e.Sched.RunFor(31 * time.Second)
	for name, want := range map[string]string{"low": "paused", "high": "running"} {
		if st, _ := s.StatusOf(name); st.State != want {
			t.Fatalf("%s reads %q beside the preemptor, want %q", name, st.State, want)
		}
	}
	if _, ok := s.StatusOf("ghost"); ok {
		t.Fatal("StatusOf found a job nobody submitted")
	}
	for i := 0; !s.allDone() && i < 3600; i++ {
		e.Sched.RunFor(time.Second)
	}
	m, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs[0].Preemptions == 0 {
		t.Fatal("low-priority job was never preempted")
	}
	rows := s.Status()
	if len(rows) != len(m.Jobs) {
		t.Fatalf("%d status rows, %d report rows", len(rows), len(m.Jobs))
	}
	for i, st := range rows {
		jr := m.Jobs[i]
		if st.Name != jr.Name || st.State != "done" || st.JobID != jr.JobID ||
			time.Duration(st.Arrived) != jr.Arrived || time.Duration(st.Admitted) != jr.Admitted ||
			time.Duration(st.Finished) != jr.Finished || st.Preemptions != jr.Preemptions {
			t.Fatalf("status row %+v disagrees with report row %+v", st, jr)
		}
	}
	if batch := runRoster(t, 11, 1, preemptRoster(), opt); batch.Fingerprint() != m.Fingerprint() {
		t.Fatalf("live fingerprint %016x, batch %016x", m.Fingerprint(), batch.Fingerprint())
	}
}

// openPreemptPair opens a live scheduler over a low-priority job (resilient
// or plain) and a priority-1 job arriving 30 s in with preemption on, and
// returns it with the engine and the low job's bookkeeping.
func openPreemptPair(t *testing.T, resilient bool) (*Scheduler, *core.Engine, *job) {
	t.Helper()
	e := testEngine(11, 1, nil)
	s := New(e, Options{MaxConcurrent: 2, Preempt: true})
	low := mkJob("low", "L", 0, 0, []cloud.SiteID{cloud.NorthEU}, 400, 2*time.Minute)
	if resilient {
		low.Spec.Resilience = &resilience.Config{CheckpointInterval: 10 * time.Second}
	}
	high := mkJob("high", "H", 1, 30*time.Second, []cloud.SiteID{cloud.WestEU}, 400, 40*time.Second)
	for _, j := range []JobSpec{low, high} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	return s, e, s.byName["low"]
}

// TestPreemptionHoldsResilientJob: preempting a job that runs with
// Resilience is real, not cosmetic — while the priority-1 job streams, the
// held job moves no bytes, and it finishes no earlier than the same job
// without Resilience (which has always been held).
func TestPreemptionHoldsResilientJob(t *testing.T) {
	finish := func(resilient bool) time.Duration {
		s, e, low := openPreemptPair(t, resilient)
		start := e.Sched.Now()
		// high is admitted at 30 s and streams until 70 s: low is held
		// throughout (31 s, 69 s).
		e.Sched.RunUntil(start + 31*time.Second)
		if !low.run.TransfersPaused() {
			t.Fatalf("resilient=%v: low job not paused beside the priority-1 job", resilient)
		}
		before := e.Net.JobEgressBytes(low.run.ID())
		e.Sched.RunUntil(start + 69*time.Second)
		if moved := e.Net.JobEgressBytes(low.run.ID()) - before; moved != 0 {
			t.Fatalf("resilient=%v: held job moved %d bytes while preempted", resilient, moved)
		}
		for i := 0; !s.allDone() && i < 3600; i++ {
			e.Sched.RunFor(time.Second)
		}
		m, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		lowRep := m.Jobs[0]
		if lowRep.Preemptions != 1 || lowRep.Report.Incomplete != 0 {
			t.Fatalf("resilient=%v: preemptions=%d incomplete=%d", resilient,
				lowRep.Preemptions, lowRep.Report.Incomplete)
		}
		if resilient && lowRep.Report.Resilience.Checkpoints == 0 {
			t.Fatal("resilient job took no checkpoints under the scheduler")
		}
		return lowRep.Finished
	}
	plain, resilient := finish(false), finish(true)
	if resilient < plain {
		t.Fatalf("resilient job finished at %v, before the plain job's %v: its hold was cosmetic",
			resilient, plain)
	}
}

// TestCancelResilientJob: cancelling a running resilient job aborts its
// transfers, stops its checkpoint ticker and leaves nothing in flight.
func TestCancelResilientJob(t *testing.T) {
	s, e, low := openPreemptPair(t, true)
	start := e.Sched.Now()
	e.Sched.RunUntil(start + 25*time.Second) // mid-transfer of the first window
	if err := s.Cancel("low"); err != nil {
		t.Fatal(err)
	}
	if !low.run.Cancelled() || !low.run.Done() {
		t.Fatalf("cancelled resilient run: cancelled=%v done=%v (transfers still in flight)",
			low.run.Cancelled(), low.run.Done())
	}
	before := e.Net.JobEgressBytes(low.run.ID())
	e.Sched.RunFor(2 * time.Minute)
	if moved := e.Net.JobEgressBytes(low.run.ID()) - before; moved != 0 {
		t.Fatalf("cancelled job moved %d bytes after Cancel", moved)
	}
	// Two checkpoint ticks (10 s, 20 s) fit before the cancel; a live ticker
	// would have taken a dozen more by now.
	if got := low.run.Finalize().Resilience.Checkpoints; got > 2 {
		t.Fatalf("checkpoint ticker kept running after Cancel: %d checkpoints", got)
	}
}

// TestPerJobEgressSumsToWorldTotal is the conservation property: for any
// seeded roster, per-job attributed netsim egress bytes sum exactly to the
// per-site world totals.
func TestPerJobEgressSumsToWorldTotal(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		e := testEngine(seed, 1, nil)
		s := New(e, Options{MaxConcurrent: 2})
		for _, j := range testRoster() {
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var perJob int64
		for i := 0; i < e.Net.JobsSeen(); i++ {
			perJob += e.Net.JobEgressBytes(i)
		}
		var perSite int64
		for _, id := range e.Net.Topology().SiteIDs() {
			perSite += e.Net.EgressBytes(id)
		}
		if perJob != perSite {
			t.Fatalf("seed %d: per-job egress %d != per-site egress %d", seed, perJob, perSite)
		}
		if perJob == 0 {
			t.Fatalf("seed %d: no egress accounted", seed)
		}
	}
}

// TestAloneNeverLaterThanContended is the monotonicity property: a job run
// alone finishes no later than the same job inside a FIFO roster contending
// for links, VM slots and admission.
func TestAloneNeverLaterThanContended(t *testing.T) {
	roster := testRoster()
	contended := runRoster(t, 9, 1, roster, Options{MaxConcurrent: 2})
	for i, spec := range roster {
		alone := runRoster(t, 9, 1, []JobSpec{spec}, Options{MaxConcurrent: 2})
		a, c := alone.Jobs[0].Completion, contended.Jobs[i].Completion
		if a > c {
			t.Fatalf("job %s alone (%v) finished later than contended (%v)", spec.Name, a, c)
		}
	}
}

// TestSharedMonitorNoReprobing: concurrent jobs share the engine's
// world-scoped monitor, so the probe count over a fixed virtual horizon is
// identical with and without jobs running — admission never re-probes.
func TestSharedMonitorNoReprobing(t *testing.T) {
	probeTotal := func(e *core.Engine, ob *obs.Observer) int64 {
		var total int64
		ctr := ob.Metrics.Counter("sage_probes_total", "", "from", "to")
		for _, l := range e.Net.Topology().Links() {
			total += ctr.With(string(l.From), string(l.To)).Value()
		}
		return total
	}
	obA := obs.NewObserver()
	eA := testEngine(13, 1, obA)
	s := New(eA, Options{MaxConcurrent: 2})
	for _, j := range testRoster() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	horizon := eA.Sched.Now()

	obB := obs.NewObserver()
	eB := testEngine(13, 1, obB)
	eB.Sched.RunUntil(horizon)

	pa, pb := probeTotal(eA, obA), probeTotal(eB, obB)
	if pa != pb {
		t.Fatalf("probe counts differ: %d with 3 jobs vs %d idle — jobs re-probed the world", pa, pb)
	}
	if pa == 0 {
		t.Fatal("no probes recorded")
	}
}

// TestStepSteadyStateNoAlloc guards the dispatch hot path: with a full
// running set and a populated queue, one scheduling round allocates nothing.
func TestStepSteadyStateNoAlloc(t *testing.T) {
	e := testEngine(1, 1, nil)
	s := New(e, Options{MaxConcurrent: 2, Policy: FairShare{}})
	for _, j := range testRoster() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// Arrivals fire and both slots fill; b0 stays queued.
	for _, j := range s.jobs {
		j := j
		e.Sched.After(j.spec.Arrival, func() { s.arrive(j) })
	}
	e.Sched.RunFor(15 * time.Second)
	if len(s.running) != 2 || len(s.pending) != 1 {
		t.Fatalf("setup: running=%d pending=%d", len(s.running), len(s.pending))
	}
	now := e.Sched.Now()
	s.Step(now) // warm the view buffers
	allocs := testing.AllocsPerRun(100, func() { s.Step(now) })
	if allocs != 0 {
		t.Fatalf("Step allocates %.1f per round in steady state, want 0", allocs)
	}
}

func TestSubmitAndRunValidation(t *testing.T) {
	e := testEngine(1, 1, nil)
	s := New(e, Options{})
	if err := s.Submit(JobSpec{Name: "x"}); err == nil {
		t.Fatal("Submit accepted a zero-duration job")
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("Run accepted an empty roster")
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}
