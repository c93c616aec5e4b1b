package bench

import (
	"strings"
	"testing"

	"sage/internal/obs"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(all))
	}
	for i, e := range all {
		if e.ID != i+1 {
			t.Fatalf("IDs not contiguous: %v", e)
		}
		if e.Name == "" || e.Desc == "" || e.Figure == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", e.ID, e)
		}
	}
	if _, ok := ByID(3); !ok {
		t.Fatal("ByID(3) missing")
	}
	if _, ok := ByID(99); ok {
		t.Fatal("ByID(99) should not exist")
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode and
// sanity-checks that each produces non-empty tables. This is the
// integration test of the whole stack.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds each")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			tables := e.Run(Config{Seed: 1, Quick: true})
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q has no rows", tb.Title)
				}
				out := tb.String()
				if strings.Contains(out, "timeout") || strings.Contains(out, "failed") {
					t.Fatalf("table %q contains failures:\n%s", tb.Title, out)
				}
			}
		})
	}
}

func TestParMapCoversAllIndices(t *testing.T) {
	n := 100
	hits := make([]int, n)
	parMap(n, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// n smaller than worker count.
	small := make([]int, 2)
	parMap(2, func(i int) { small[i]++ })
	if small[0] != 1 || small[1] != 1 {
		t.Fatal("small parMap broken")
	}
	parMap(0, func(int) { t.Fatal("parMap(0) must not call fn") })
}

func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment 5 twice")
	}
	run := func() string {
		var b strings.Builder
		for _, tb := range mustByID(t, 5).Run(Config{Seed: 7, Quick: true}) {
			b.WriteString(tb.String())
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("experiment 5 not deterministic:\n%s\n---\n%s", a, b)
	}
}

// TestObservabilityInertExp19 pins the gating guarantee at suite scale: the
// recovery experiment renders byte-identical tables with the layer detached
// and attached.
func TestObservabilityInertExp19(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick recovery experiment twice")
	}
	e := mustByID(t, 19)
	prev := obsHook.Swap(nil)
	defer obsHook.Store(prev)
	off := renderQuick(e, 1)
	obsHook.Store(obs.NewObserver())
	if on := renderQuick(e, 1); off != on {
		t.Fatal("observability changed the rendered recovery tables")
	}
}

func mustByID(t *testing.T, id int) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %d missing", id)
	}
	return e
}
