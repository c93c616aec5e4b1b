package stream

import (
	"fmt"
	"testing"
	"time"

	"sage/internal/simtime"
)

// This file holds the bodies of the streaming data-plane micro-benchmarks
// so that both `go test -bench` (internal/stream) and the perf-baseline
// harness (`sagebench -perf` via internal/bench) run the identical
// workload. Same pattern as internal/netsim/benchmarks.go.

// benchBatch is the number of events one benchmark op aggregates — one
// window's worth at paper-scale rates.
const benchBatch = 1000

// benchEvents builds one deterministic batch of events over `keys` interned
// keys, spread across a single 30 s window. A small multiplicative hash
// skews which keys repeat, standing in for the Zipf draw without an RNG
// dependency.
func benchEvents(keys int) ([]Event, *KeyTable) {
	strs := make([]string, keys)
	for k := range strs {
		strs[k] = fmt.Sprintf("sensor-%04d", k)
	}
	events := make([]Event, benchBatch)
	step := simtime.Time(30*time.Second) / benchBatch
	for i := range events {
		k := (i * 2654435761) % keys
		events[i] = Event{
			Key:   strs[k],
			KeyID: k + 1,
			Value: float64(i%97) / 7,
			Time:  simtime.Time(i) * step,
		}
	}
	return events, NewKeyTable(KeyListOf(strs))
}

// RunBenchmarkWindowAggDense measures the dense (KeyID-indexed) window
// aggregation path: one op folds a 1000-event batch into a table-backed
// WindowAgg and advances the watermark past it.
func RunBenchmarkWindowAggDense(b *testing.B, keys int) {
	events, table := benchEvents(keys)
	w := NewWindowAggDense(30*time.Second, Mean, table)
	span := simtime.Time(30 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := simtime.Time(i) * span
		for _, e := range events {
			e.Time += off
			w.Add(e)
		}
		w.Advance(off + span)
	}
}

// UniformWindowEvents is the number of events one
// RunBenchmarkWindowAggDenseUniform op folds: one window of one source of the
// resil_recover benchmark workload (5 000 events/s for 20 s).
const UniformWindowEvents = 100_000

// RunBenchmarkWindowAggDenseUniform measures the columnar fold where the
// cells miss the cache and no key is hot: one op folds a window of
// UniformWindowEvents events, keys uniform over the table — five events a key
// at 20 000 keys — as one Block into a dense WindowAgg of the given kind and
// closes the window. Closed aggregates are not recycled, as in the engine,
// which ships them: the op pays for its 16 B × keys cell table.
func RunBenchmarkWindowAggDenseUniform(b *testing.B, keys int, kind AggKind) {
	_, table := benchEvents(keys)
	const span = simtime.Time(20 * time.Second)
	blk := Block{
		Table:  table,
		IDs:    make([]int32, UniformWindowEvents),
		Values: make([]float64, UniformWindowEvents),
		Step:   time.Duration(span) / UniformWindowEvents,
	}
	// A 64-bit LCG stands in for the generator's uniform key and normal value
	// draws: what the fold is sensitive to is that neither column has a
	// pattern a predictor can learn.
	x := uint64(1)
	for i := range blk.IDs {
		x = x*6364136223846793005 + 1442695040888963407
		blk.IDs[i] = int32((x>>33)%uint64(keys)) + 1
		blk.Values[i] = 20 + float64(int64(x>>20)%10000-5000)/1000
	}
	w := NewWindowAggDense(time.Duration(span), kind, table)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.From = simtime.Time(i) * span
		w.AddBlock(&blk)
		w.Advance(blk.From + span)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*UniformWindowEvents), "ns/event")
}

// RunBenchmarkWindowAggMap measures the same workload through the
// string-map path (no key table), the pre-interning baseline.
func RunBenchmarkWindowAggMap(b *testing.B, keys int) {
	events, _ := benchEvents(keys)
	for i := range events {
		events[i].KeyID = 0
	}
	w := NewWindowAgg(30*time.Second, Mean)
	span := simtime.Time(30 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := simtime.Time(i) * span
		for _, e := range events {
			e.Time += off
			w.Add(e)
		}
		w.Advance(off + span)
	}
}
