package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.CI95Low >= s.Mean || s.CI95High <= s.Mean {
		t.Fatalf("CI = [%v, %v] around %v", s.CI95Low, s.CI95High, s.Mean)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 0.99) != 7 {
		t.Fatal("singleton percentile")
	}
}

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{11, 9}, []float64{10, 10})
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
	// Zero actuals skipped.
	if MAPE([]float64{5, 11}, []float64{0, 10}) != 0.1 {
		t.Fatal("zero actual not skipped")
	}
	if MAPE(nil, nil) != 0 {
		t.Fatal("empty MAPE should be 0")
	}
}

func TestMAPEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

func TestDurations(t *testing.T) {
	out := Durations([]time.Duration{time.Second, 500 * time.Millisecond})
	if out[0] != 1 || out[1] != 0.5 {
		t.Fatalf("Durations = %v", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("beta", "22")
	s := tb.String()
	if !strings.Contains(s, "== Demo ==") {
		t.Fatalf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns aligned: "value" starts at the same offset everywhere.
	off := strings.Index(lines[1], "value")
	if off < 0 || !strings.HasPrefix(lines[3][off:], "1") {
		t.Fatalf("misaligned:\n%s", s)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tb.Rows[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add("x,y", `q"u`)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"q\"\"u\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		FmtDur(90 * time.Minute):        "1.50h",
		FmtDur(90 * time.Second):        "1.5m",
		FmtDur(1500 * time.Millisecond): "1.5s",
		FmtDur(12 * time.Millisecond):   "12ms",
		FmtBytes(3 << 30):               "3.0GiB",
		FmtBytes(5 << 20):               "5.0MiB",
		FmtBytes(2 << 10):               "2.0KiB",
		FmtBytes(42):                    "42B",
		FmtMoney(1.23456):               "$1.2346",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("format = %q, want %q", got, want)
		}
	}
}

// Property: percentiles are monotone in q and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, u := range raw {
			vals[i] = float64(u)
		}
		sort.Float64s(vals)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			p := Percentile(vals, q)
			if p < prev || p < vals[0]-1e-9 || p > vals[len(vals)-1]+1e-9 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary invariants hold for any sample.
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, u := range raw {
			vals[i] = float64(u)
		}
		s := Summarize(vals)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Min <= s.P50 && s.P50 <= s.P95+1e-9 && s.P95 <= s.P99+1e-9 &&
			s.P99 <= s.Max+1e-9 && s.Std >= 0 &&
			s.CI95Low <= s.Mean && s.Mean <= s.CI95High
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
