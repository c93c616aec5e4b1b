package bench

import (
	"strings"
	"testing"

	"sage/internal/sched"
)

func schedExperiment(t *testing.T) Experiment {
	t.Helper()
	for _, e := range All() {
		if e.Name == "sched" {
			return e
		}
	}
	t.Fatal("sched experiment not registered")
	return Experiment{}
}

// TestSchedShardInvariant pins the scheduler determinism bar: the full
// rendered E7 output — every fingerprint, every per-job row — must be
// byte-identical whether the engines run on 1, 2 or 4 shards.
func TestSchedShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E7 sweep three times")
	}
	e := schedExperiment(t)
	render := func(shards int) string {
		var b strings.Builder
		for _, tb := range e.Run(Config{Seed: 1, Quick: true, Shards: shards}) {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := render(1)
	for _, s := range []int{2, 4} {
		if got := render(s); got != want {
			t.Fatalf("E7 output drifted at %d shards:\n%s", s, firstDiff(want, got))
		}
	}
}

// TestSchedFairBeatsFIFOTail pins the headline contention result: with
// same-tenant jobs sharing source links, fair-share's tenant interleaving
// must reduce p95 job completion time versus FIFO at 8 concurrent jobs.
func TestSchedFairBeatsFIFOTail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 8-job contention rosters")
	}
	cfg := Config{Seed: 1, Quick: true}.withDefaults()
	fifo, _ := runSchedLevel(cfg, sched.FIFO{}, 8)
	fair, _ := runSchedLevel(cfg, sched.FairShare{}, 8)
	if fair.Completion.P95 >= fifo.Completion.P95 {
		t.Fatalf("fair-share did not improve tail completion: fair p95 %.1fs vs fifo p95 %.1fs",
			fair.Completion.P95, fifo.Completion.P95)
	}
}

// TestDispatchSteadyStateZeroAlloc runs the dispatch benchmark in-process
// so the budget holds on every test run, not only when the baseline is
// re-recorded.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark loop")
	}
	r := testing.Benchmark(func(b *testing.B) { sched.RunBenchmarkDispatch(b, 16) })
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %d per Step; budget is 0", allocs)
	}
}
