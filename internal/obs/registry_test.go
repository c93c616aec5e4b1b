package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.Counter("jobs_total", "jobs started", "site")
	a := cv.With("tokyo")
	b := cv.With("paris")
	a.Inc()
	a.Add(4)
	b.Inc()
	if got := a.Value(); got != 5 {
		t.Fatalf("tokyo = %d, want 5", got)
	}
	if got := b.Value(); got != 1 {
		t.Fatalf("paris = %d, want 1", got)
	}
	// Same label tuple resolves to the same cell.
	if cv.With("tokyo").Value() != 5 {
		t.Fatal("re-resolved handle does not share the cell")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("capacity_mbps", "link capacity", "from", "to").With("a", "b")
	g.Set(120.5)
	if got := g.Value(); got != 120.5 {
		t.Fatalf("Value = %v, want 120.5", got)
	}
	g.Set(100)
	if got := g.Value(); got != 100 {
		t.Fatalf("after a second Set, Value = %v, want 100", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 5, 10}, "sink").With("s")
	for _, v := range []float64{0.5, 0.9, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 111.4 {
		t.Fatalf("Sum = %v, want 111.4", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "site").With("a").Add(3)
	// Re-registering the same family must find the same cells.
	if got := r.Counter("x_total", "", "site").With("a").Value(); got != 3 {
		t.Fatalf("re-registered family lost state: %d", got)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "site")
	for name, fn := range map[string]func(){
		"kind":      func() { r.Gauge("m", "", "site") },
		"label-key": func() { r.Counter("m", "", "peer") },
		"arity":     func() { r.Counter("m", "", "site", "peer") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.Counter("m", "", "from", "to")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	cv.With("only-one")
}

func TestNonAscendingBucketsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	r.Histogram("h", "", []float64{5, 1})
}

func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "", "site").With("x")
	g := r.Gauge("b", "").With()
	h := r.Histogram("c", "", nil, "site").With("x")
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Enabled() || g.Enabled() {
		t.Fatal("nil-registry handles report Enabled")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil-registry handles accumulated state")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry export: %q, %v", sb.String(), err)
	}
}

func TestConcurrentHandles(t *testing.T) {
	r := NewRegistry()
	cv := r.Counter("hits_total", "", "site")
	gv := r.Gauge("level", "", "site")
	hv := r.Histogram("obs_seconds", "", []float64{1, 2}, "site")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cv.With("s")
			g := gv.With("s")
			h := hv.With("s")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(7)
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if got := cv.With("s").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := gv.With("s").Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	h := hv.With("s")
	if h.Count() != workers*per || h.Sum() != 1.5*workers*per {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "site").With("s")
	g := r.Gauge("g", "", "site").With("s")
	h := r.Histogram("h_seconds", "", DefBuckets, "site").With("s")
	for name, fn := range map[string]func(){
		"counter-inc":  c.Inc,
		"counter-add":  func() { c.Add(3) },
		"gauge-set":    func() { g.Set(1.25) },
		"hist-observe": func() { h.Observe(7) },
		"noop-counter": Counter{}.Inc,
		"noop-gauge":   func() { Gauge{}.Set(1) },
		"noop-observe": func() { Histogram{}.Observe(1) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
