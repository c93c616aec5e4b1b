package resilience

import (
	"slices"

	"sage/internal/simtime"
	"sage/internal/stream"
)

// LoggedWindow is one retained window batch at a source: the aggregate the
// window closed with, to re-ship as is, and the event count/bytes to rebuild
// a raw-shipping window's payload size. Agg is held by reference, not copied:
// an aggregate a window closed with is not written again while the log holds
// it (see stream.WindowAgg.Pool), and the log only ever hands it to a merge,
// which reads it, and, when a trim drops it, to the trim's release.
type LoggedWindow struct {
	Window     stream.Window
	Agg        *stream.KeyedAgg
	Events     int
	EventBytes int64
}

// BatchLog models the durable batch retention each source site keeps for
// replay: processed windows stay available until a checkpoint confirms the
// sink no longer needs them (TrimThrough). Entries are keyed by job source
// index, appended in window order. A trim hands each dropped window to its
// caller, which returns the aggregate (a dense cell table) to the pool it
// came from, and compacts in place with slices.Delete, which zeroes the
// slots it vacates: the log keeps no reference to a dropped aggregate.
type BatchLog struct {
	entries map[int][]LoggedWindow
}

// NewBatchLog returns an empty log.
func NewBatchLog() *BatchLog {
	return &BatchLog{entries: make(map[int][]LoggedWindow)}
}

// Append retains one processed window for a source.
func (l *BatchLog) Append(src int, w LoggedWindow) {
	l.entries[src] = append(l.entries[src], w)
}

// Windows returns the retained windows of a source, oldest first. The slice
// is the log's own storage: callers must not mutate it.
func (l *BatchLog) Windows(src int) []LoggedWindow { return l.entries[src] }

// Get returns the retained window with the given start.
func (l *BatchLog) Get(src int, start simtime.Time) (LoggedWindow, bool) {
	for _, w := range l.entries[src] {
		if w.Window.Start == start {
			return w, true
		}
	}
	return LoggedWindow{}, false
}

// TrimThrough drops retained windows ending at or before cutoff — called
// after a checkpoint confirms the sink durably holds everything up to it —
// and passes each dropped window to release, oldest first, before the log
// lets go of it.
func (l *BatchLog) TrimThrough(src int, cutoff simtime.Time, release func(LoggedWindow)) {
	ws := l.entries[src]
	n := 0
	for n < len(ws) && ws[n].Window.End <= cutoff {
		release(ws[n])
		n++
	}
	if n > 0 {
		l.entries[src] = slices.Delete(ws, 0, n)
	}
}

// Len returns the number of retained windows for a source.
func (l *BatchLog) Len(src int) int { return len(l.entries[src]) }
