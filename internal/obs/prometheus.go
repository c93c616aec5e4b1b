package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE headers per family,
// histogram families expanded into cumulative _bucket/_sum/_count series.
// Output is deterministic — families sorted by name, series by label values
// — so goldens can pin it. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, name := range r.names() {
		v := r.lookup(name)
		if v == nil {
			continue
		}
		if v.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(name)
			bw.WriteByte(' ')
			bw.WriteString(v.help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(v.kind.String())
		bw.WriteByte('\n')
		labels, cells := v.series()
		for i, c := range cells {
			switch v.kind {
			case KindCounter:
				writeSeries(bw, name, v.keys, labels[i], "", "")
				bw.WriteString(strconv.FormatInt(c.n.Load(), 10))
				bw.WriteByte('\n')
			case KindGauge:
				writeSeries(bw, name, v.keys, labels[i], "", "")
				writeFloat(bw, math.Float64frombits(c.bits.Load()))
				bw.WriteByte('\n')
			case KindHistogram:
				cum := int64(0)
				for bi := range c.buckets {
					cum += c.buckets[bi].Load()
					le := "+Inf"
					if bi < len(v.upper) {
						le = formatFloat(v.upper[bi])
					}
					writeSeries(bw, name+"_bucket", v.keys, labels[i], "le", le)
					bw.WriteString(strconv.FormatInt(cum, 10))
					bw.WriteByte('\n')
				}
				writeSeries(bw, name+"_sum", v.keys, labels[i], "", "")
				writeFloat(bw, math.Float64frombits(c.bits.Load()))
				bw.WriteByte('\n')
				writeSeries(bw, name+"_count", v.keys, labels[i], "", "")
				bw.WriteString(strconv.FormatInt(c.n.Load(), 10))
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

// writeSeries writes `name{k1="v1",...}` with an optional extra label (le
// for histogram buckets) and a trailing space.
func writeSeries(bw *bufio.Writer, name string, keys, vals []string, extraKey, extraVal string) {
	bw.WriteString(name)
	if len(keys) > 0 || extraKey != "" {
		bw.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(k)
			bw.WriteString(`="`)
			bw.WriteString(labelEscaper.Replace(vals[i]))
			bw.WriteByte('"')
		}
		if extraKey != "" {
			if len(keys) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraKey)
			bw.WriteString(`="`)
			bw.WriteString(extraVal)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
}

// labelEscaper escapes backslash, double-quote and newline per the text
// format. Site/link labels never contain these; the escape keeps the
// exporter correct for arbitrary labels anyway.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func writeFloat(bw *bufio.Writer, f float64) { bw.WriteString(formatFloat(f)) }
