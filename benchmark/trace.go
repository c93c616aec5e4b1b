package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public surface.
// Spans live in memory and are written out when the run ends (-trace-out).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Run    string `json:"run"`    // shared by every span of one invocation
	Name   string `json:"name"`
	// StartUS/EndUS are host microseconds since the tracer was created.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
}

// tracer records spans around the benchmark's own calls into the system
// under test; there is no instrumentation inside the program. A nil tracer
// records nothing, so the untraced runs that produce the end-to-end numbers
// pay for no span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
	// stack holds the open spans of the driving goroutine; a new span's
	// parent is the innermost open one.
	stack []int
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span on the driving goroutine and returns the function that
// closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		StartUS: time.Since(t.t0).Microseconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[id-1].EndUS = time.Since(t.t0).Microseconds()
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == id {
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				break
			}
		}
	}
}

// current returns the innermost open span of the driving goroutine, the
// parent for spans measured on other goroutines.
func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

// add records a span measured elsewhere (an HTTP call timed by a client
// goroutine) under the given parent.
func (t *tracer) add(parent int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0).Microseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Name: name, StartUS: s, EndUS: s + d.Microseconds()})
}

// traceDoc is what -trace-out writes: the spans and the per-layer table.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Spans    []span             `json:"spans"`
	Layers   map[string]float64 `json:"per_layer"`
}

func writeTrace(path string, doc traceDoc) error {
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
