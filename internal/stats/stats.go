// Package stats provides the small statistics toolkit used by the
// experiment harness: summaries with percentiles, confidence intervals,
// prediction-error metrics, and plain-text/CSV table rendering.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary describes a sample of float64 values.
type Summary struct {
	N                 int
	Mean, Std         float64
	Min, Max          float64
	P50, P95, P99     float64
	CI95Low, CI95High float64
}

// Summarize computes a Summary. An empty input yields the zero Summary.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vals)}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	var sq float64
	for _, v := range sorted {
		d := v - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(sorted)))
	s.P50 = Percentile(sorted, 0.50)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	half := 1.96 * s.Std / math.Sqrt(float64(len(sorted)))
	s.CI95Low, s.CI95High = s.Mean-half, s.Mean+half
	return s
}

// Percentile returns the q-quantile (0..1) of an ascending-sorted sample by
// linear interpolation. It panics on unsorted inputs only implicitly (wrong
// answers); callers own sorting.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// MAPE returns the mean absolute percentage error of predictions against
// actuals, skipping pairs with zero actual. It returns 0 for empty input.
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: MAPE length mismatch")
	}
	var sum float64
	n := 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Durations converts a duration slice to seconds for summarizing.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Table renders aligned plain-text tables (and CSV) for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; short rows are padded.
func (t *Table) Add(cells ...string) {
	row := append([]string(nil), cells...)
	for len(row) < len(t.Headers) {
		row = append(row, "")
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes around cells
// containing commas).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// FmtDur renders a duration rounded for tables.
func FmtDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

// FmtBytes renders a byte count with a binary unit.
func FmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// FmtMoney renders a dollar amount.
func FmtMoney(v float64) string { return fmt.Sprintf("$%.4f", v) }
