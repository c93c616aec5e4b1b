package netsim

import (
	"fmt"
	"testing"
)

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
