package bench

import (
	"os"
	"sync/atomic"

	"sage/internal/obs"
)

// obsHook carries the observer every bench-built engine attaches. It is nil
// by default, so the experiment suite runs with the observability layer off
// and the golden tables stay byte-identical; the SAGE_OBS=1 environment
// variable, read once at init, turns it on for the whole suite, and the
// inertness test swaps it directly.
var obsHook atomic.Pointer[obs.Observer]

func init() {
	if os.Getenv("SAGE_OBS") == "1" {
		obsHook.Store(obs.NewObserver())
	}
}

// observer returns the observer bench-built engines should attach; nil when
// the layer is off.
func observer() *obs.Observer { return obsHook.Load() }
