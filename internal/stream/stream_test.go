package stream

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"sage/internal/simtime"
)

func ev(key string, v float64, at time.Duration) Event {
	return Event{Key: key, Value: v, Time: at}
}

func TestKeyedAggKinds(t *testing.T) {
	events := []Event{ev("a", 2, 0), ev("a", 4, 0), ev("b", -1, 0)}
	cases := []struct {
		kind AggKind
		a, b float64
	}{
		{Count, 2, 1},
		{Sum, 6, -1},
		{Mean, 3, -1},
		{Min, 2, -1},
		{Max, 4, -1},
	}
	for _, c := range cases {
		agg := NewKeyedAgg(c.kind)
		for _, e := range events {
			agg.Add(e)
		}
		if got, ok := agg.Value("a"); !ok || got != c.a {
			t.Fatalf("%v: a = %v,%v; want %v", c.kind, got, ok, c.a)
		}
		if got, ok := agg.Value("b"); !ok || got != c.b {
			t.Fatalf("%v: b = %v,%v; want %v", c.kind, got, ok, c.b)
		}
	}
	agg := NewKeyedAgg(Sum)
	if _, ok := agg.Value("absent"); ok {
		t.Fatal("absent key should report !ok")
	}
}

func TestKeyedAggCounters(t *testing.T) {
	agg := NewKeyedAgg(Sum)
	agg.AddValue("x", 1)
	agg.AddValue("x", 1)
	agg.AddValue("y", 1)
	if agg.Keys() != 2 || eventCount(agg) != 3 {
		t.Fatalf("Keys=%d events=%d", agg.Keys(), eventCount(agg))
	}
}

func TestKeyedAggResultSorted(t *testing.T) {
	agg := NewKeyedAgg(Sum)
	for _, k := range []string{"z", "a", "m"} {
		agg.AddValue(k, 1)
	}
	res := agg.Result()
	if len(res) != 3 || res[0].Key != "a" || res[1].Key != "m" || res[2].Key != "z" {
		t.Fatalf("Result = %v", res)
	}
}

func TestTopK(t *testing.T) {
	agg := NewKeyedAgg(Sum)
	agg.AddValue("small", 1)
	agg.AddValue("big", 10)
	agg.AddValue("mid", 5)
	agg.AddValue("tie", 5)
	top := agg.TopK(3)
	if top[0].Key != "big" {
		t.Fatalf("TopK[0] = %v", top[0])
	}
	// Tie broken by key: "mid" < "tie".
	if top[1].Key != "mid" || top[2].Key != "tie" {
		t.Fatalf("tie-break wrong: %v", top)
	}
	if got := agg.TopK(99); len(got) != 4 {
		t.Fatalf("TopK over-count = %d", len(got))
	}
}

func TestMergeMatchesSingleNode(t *testing.T) {
	// The geo-distribution invariant: partials merged == computed centrally.
	for _, kind := range []AggKind{Count, Sum, Mean, Min, Max} {
		central := NewKeyedAgg(kind)
		siteA := NewKeyedAgg(kind)
		siteB := NewKeyedAgg(kind)
		vals := []float64{3, -2, 7, 0.5, 11, -4}
		for i, v := range vals {
			e := ev("k"+string(rune('a'+i%2)), v, 0)
			central.Add(e)
			if i%2 == 0 {
				siteA.Add(e)
			} else {
				siteB.Add(e)
			}
		}
		siteA.Merge(siteB)
		for _, kv := range central.Result() {
			got, _ := siteA.Value(kv.Key)
			if math.Abs(got-kv.Value) > 1e-12 {
				t.Fatalf("%v: merged %v, central %v for key %s", kind, got, kv.Value, kv.Key)
			}
		}
	}
}

func TestMergeKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKeyedAgg(Sum).Merge(NewKeyedAgg(Count))
}

func TestMergeNilIsNoop(t *testing.T) {
	a := NewKeyedAgg(Sum)
	a.AddValue("x", 1)
	a.Merge(nil)
	if v, _ := a.Value("x"); v != 1 {
		t.Fatal("nil merge changed state")
	}
}

func TestSerializedBytes(t *testing.T) {
	a := NewKeyedAgg(Sum)
	if a.SerializedBytes() != 0 {
		t.Fatal("empty aggregate should serialize to 0")
	}
	a.AddValue("abcd", 1)
	a.AddValue("abcd", 2) // same key: size unchanged
	if got := a.SerializedBytes(); got != 36 {
		t.Fatalf("SerializedBytes = %d, want 4+32", got)
	}
}

func TestWindowAggAdvance(t *testing.T) {
	wa := NewWindowAgg(10*time.Second, Sum)
	wa.Add(ev("k", 1, 5*time.Second))
	wa.Add(ev("k", 2, 15*time.Second))
	wa.Add(ev("k", 4, 25*time.Second))
	if len(wa.open) != 3 {
		t.Fatalf("open windows = %d", len(wa.open))
	}
	closed := wa.Advance(20 * time.Second)
	if len(closed) != 2 {
		t.Fatalf("closed %d windows, want 2", len(closed))
	}
	if closed[0].Window.Start != 0 || closed[1].Window.Start != 10*time.Second {
		t.Fatalf("windows out of order: %v %v", closed[0].Window, closed[1].Window)
	}
	if v, _ := closed[0].Agg.Value("k"); v != 1 {
		t.Fatalf("window 0 sum = %v", v)
	}
	if len(wa.open) != 1 {
		t.Fatalf("open windows after advance = %d", len(wa.open))
	}
	// Watermark not past end: window stays open.
	if got := wa.Advance(25 * time.Second); len(got) != 0 {
		t.Fatalf("premature close: %v", got)
	}
}

func TestWindowAggLateEventOpensNewWindow(t *testing.T) {
	wa := NewWindowAgg(10*time.Second, Sum)
	wa.Add(ev("k", 1, 5*time.Second))
	wa.Advance(10 * time.Second)
	wa.Add(ev("k", 9, 6*time.Second)) // late
	closed := wa.Advance(simtime.Time(time.Hour))
	if len(closed) != 1 {
		t.Fatalf("late event produced %d windows", len(closed))
	}
	if v, _ := closed[0].Agg.Value("k"); v != 9 {
		t.Fatalf("late window sum = %v", v)
	}
}

func TestWindowInvalidWidthPanics(t *testing.T) {
	for _, width := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWindowAgg(%v) did not panic", width)
				}
			}()
			NewWindowAgg(width, Sum)
		}()
	}
}

// Property: Merge is equivalent to adding all values into one aggregate,
// for any kind and any split of any value sequence.
func TestPropertyMergeEquivalence(t *testing.T) {
	f := func(vals []int8, split uint8, kindRaw uint8) bool {
		kind := AggKind(int(kindRaw) % 5)
		one := NewKeyedAgg(kind)
		a, b := NewKeyedAgg(kind), NewKeyedAgg(kind)
		for i, raw := range vals {
			v := float64(raw)
			key := string(rune('a' + i%3))
			one.AddValue(key, v)
			if i < int(split)%(len(vals)+1) {
				a.AddValue(key, v)
			} else {
				b.AddValue(key, v)
			}
		}
		a.Merge(b)
		ra, ro := a.Result(), one.Result()
		if len(ra) != len(ro) {
			return false
		}
		for i := range ra {
			if ra[i].Key != ro[i].Key || math.Abs(ra[i].Value-ro[i].Value) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: windows partition time — a WindowAgg folds every event into the
// one aligned window of its width that contains the event's timestamp.
func TestPropertyWindowPartition(t *testing.T) {
	f := func(offsets []uint32) bool {
		width := 10 * time.Second
		w := NewWindowAgg(width, Count)
		for i, o := range offsets {
			w.Add(ev(strconv.Itoa(i), 1, simtime.Time(o)*time.Millisecond))
		}
		folded := 0
		for _, c := range w.Advance(simtime.Time(1 << 62)) {
			if c.Window.End-c.Window.Start != width || c.Window.Start%width != 0 {
				return false
			}
			for _, kv := range c.Agg.Result() {
				i, _ := strconv.Atoi(kv.Key)
				if at := simtime.Time(offsets[i]) * time.Millisecond; at < c.Window.Start || at >= c.Window.End {
					return false
				}
				folded++
			}
		}
		return folded == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{Count: "count", Sum: "sum", Mean: "mean", Min: "min", Max: "max"} {
		if k.String() != want {
			t.Fatalf("String(%d) = %q", int(k), k.String())
		}
	}
}
