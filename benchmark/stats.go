package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile of vals by linear interpolation between
// order statistics (0 for an empty sample).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the exclusive method), which is what
// the pipeline that consumes this benchmark computes spreads with. A sample
// of one has no spread: all three are the value.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// resetPeakRSS resets this process's peak-RSS watermark (VmHWM) to its
// current RSS, where the kernel allows it.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refused: VmHWM keeps its whole-process meaning
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
