package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"time"
)

// WriteChromeTrace renders the timeline's retained spans in the Chrome
// trace_event JSON format (the JSON Object Format: {"traceEvents": [...]}),
// loadable in chrome://tracing and Perfetto. An empty timeline writes an
// empty trace. Sites are interned into thread IDs with "M" thread_name metadata
// records so each site renders as its own track; spans with Dur > 0 become
// "X" complete events and instantaneous decision-loop records become "i"
// instant events. Timestamps and durations are virtual time in
// microseconds, so the export is deterministic for a deterministic run.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	spans := t.Snapshot()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}

	// Intern sites into tids in first-appearance order: deterministic, and
	// keeps tid 1 for spans with no site.
	tids := map[string]int{"": 1}
	order := []string{""}
	for _, s := range spans {
		if _, ok := tids[s.Site]; !ok {
			tids[s.Site] = len(tids) + 1
			order = append(order, s.Site)
		}
	}
	for _, site := range order {
		name := site
		if name == "" {
			name = "engine"
		}
		comma()
		bw.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(tids[site]))
		bw.WriteString(`,"args":{"name":`)
		writeJSONString(bw, name)
		bw.WriteString(`}}`)
	}

	for _, s := range spans {
		comma()
		bw.WriteString(`{"name":`)
		writeJSONString(bw, s.Phase.String())
		bw.WriteString(`,"cat":"sage","ph":"`)
		if s.Dur > 0 {
			bw.WriteByte('X')
		} else {
			bw.WriteByte('i')
		}
		bw.WriteString(`","pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(tids[s.Site]))
		bw.WriteString(`,"ts":`)
		bw.WriteString(strconv.FormatInt(int64(s.Start/time.Microsecond), 10))
		if s.Dur > 0 {
			bw.WriteString(`,"dur":`)
			bw.WriteString(strconv.FormatInt(int64(s.Dur/time.Microsecond), 10))
		} else {
			bw.WriteString(`,"s":"t"`)
		}
		bw.WriteString(`,"args":{`)
		argFirst := true
		arg := func(key string) {
			if !argFirst {
				bw.WriteByte(',')
			}
			argFirst = false
			bw.WriteByte('"')
			bw.WriteString(key)
			bw.WriteString(`":`)
		}
		if s.Peer != "" {
			arg("peer")
			writeJSONString(bw, s.Peer)
		}
		if s.Bytes != 0 {
			arg("bytes")
			bw.WriteString(strconv.FormatInt(s.Bytes, 10))
		}
		if s.Value != 0 {
			arg("value")
			bw.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
		}
		if s.ID != 0 {
			arg("id")
			bw.WriteString(strconv.FormatUint(s.ID, 10))
		}
		bw.WriteString(`}}`)
	}
	bw.WriteString(`]}`)
	bw.WriteByte('\n')
	return bw.Flush()
}

// writeJSONString writes s as a JSON string literal.
func writeJSONString(bw *bufio.Writer, s string) {
	b, _ := json.Marshal(s) // a string always marshals
	bw.Write(b)
}
