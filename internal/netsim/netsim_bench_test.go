package netsim

import (
	"fmt"
	"testing"
)

// TestReallocateZeroAllocs holds netsim's two 0-alloc budgets on every test
// run, not only when BENCH.json is re-recorded: a world-wide reallocation
// pass over 100 flows, and a fired event on the rough world after warm-up.
// Per event is the unit of the RoughWorldEvent row; a tenant arrival's Flow
// and events, about one event in four, round away in it as they do here.
func TestReallocateZeroAllocs(t *testing.T) {
	sched, net, _ := NewBenchNetwork(100)
	reallocateAll(sched, net)
	if a := testing.AllocsPerRun(200, func() { reallocateAll(sched, net) }); a != 0 {
		t.Errorf("a world-wide pass over 100 flows allocates %v", a)
	}
	rough, _ := NewBenchRoughWorld()
	rough.RunFor(benchRoughWarmup)
	if a := testing.AllocsPerRun(2000, func() { rough.Step() }); a != 0 {
		t.Errorf("a fired event on the rough world allocates %v", a)
	}
}

var churnSizes = []int{10, 100, 1000}

func BenchmarkReallocate(b *testing.B) {
	for _, n := range churnSizes {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) { RunBenchmarkReallocate(b, n) })
	}
}

func BenchmarkFlowChurn(b *testing.B) {
	for _, n := range churnSizes {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) { RunBenchmarkFlowChurn(b, n) })
	}
}

func BenchmarkRoughWorld(b *testing.B) { RunBenchmarkRoughWorld(b) }
