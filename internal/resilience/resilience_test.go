package resilience

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/route"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/transfer"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.HeartbeatInterval != 5*time.Second || cfg.CheckpointInterval != 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	// Explicit values survive.
	cfg = Config{CheckpointInterval: time.Minute, HeartbeatInterval: time.Second}.WithDefaults()
	if cfg.HeartbeatInterval != time.Second || cfg.CheckpointInterval != time.Minute {
		t.Fatalf("explicit values lost: %+v", cfg)
	}
}

func TestDetectorTransitions(t *testing.T) {
	sched := simtime.New()
	up := map[cloud.SiteID]bool{"A": true, "B": true}
	var events []string
	d := NewDetector(sched, func(s cloud.SiteID) bool { return up[s] }, Config{
		HeartbeatInterval: 5 * time.Second,
	})
	d.Watch("A")
	d.Watch("B")
	d.Watch("A") // idempotent
	d.OnTransition(func(site cloud.SiteID, from, to SiteState) {
		events = append(events, string(site)+":"+from.String()+"->"+to.String())
	})
	d.Start()
	d.Start() // idempotent

	sched.RunFor(12 * time.Second) // polls at 5s, 10s — all alive
	if len(events) != 0 {
		t.Fatalf("healthy sites transitioned: %v", events)
	}
	if d.State("A") != Alive || d.State("unwatched") != Alive {
		t.Fatal("expected Alive verdicts")
	}

	up["A"] = false
	sched.RunFor(5 * time.Second) // poll at 15s: first miss -> Suspect
	if d.State("A") != Suspect {
		t.Fatalf("state after one miss = %v, want suspect", d.State("A"))
	}
	sched.RunFor(5 * time.Second) // poll at 20s: second miss -> Dead
	if d.State("A") != Dead {
		t.Fatalf("state after two misses = %v, want dead", d.State("A"))
	}
	// Failure happened at most one interval before the first miss: the
	// modeled latency is (secondMiss - firstMiss) + interval = 10s.
	if got := d.DetectLatency("A"); got != 10*time.Second {
		t.Fatalf("detect latency = %v, want 10s", got)
	}
	if d.State("B") != Alive {
		t.Fatal("B should be unaffected")
	}

	up["A"] = true
	sched.RunFor(5 * time.Second) // poll at 25s: back alive
	if d.State("A") != Alive {
		t.Fatalf("state after recovery = %v, want alive", d.State("A"))
	}
	want := []string{"A:alive->suspect", "A:suspect->dead", "A:dead->alive"}
	if len(events) != len(want) {
		t.Fatalf("transitions = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, events[i], want[i])
		}
	}

	// The heartbeat history records the misses as zero-valued samples.
	h := d.History("A")
	if h == nil {
		t.Fatal("no history for watched site")
	}
	samples := h.Samples()
	zeros := 0
	for _, s := range samples {
		if s.Value == 0 {
			zeros++
		}
	}
	if zeros != 2 {
		t.Fatalf("history records %d misses, want 2", zeros)
	}
	if d.History("unwatched") != nil {
		t.Fatal("unwatched site has history")
	}
}

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Seq: 7,
		At:  simtime.Time(90 * time.Second),
		Sources: []SourceState{
			{
				Site:  "NEU",
				Index: 0,
				Acked: []simtime.Time{0, simtime.Time(30 * time.Second)},
				Open: []WindowCells{{
					Start: simtime.Time(60 * time.Second),
					End:   simtime.Time(90 * time.Second),
					Cells: []stream.KeyCell{
						{Key: "k1", Count: 3, Sum: 4.5, Min: 1, Max: 2},
						{Key: "k2", Count: 1, Sum: 9, Min: 9, Max: 9},
					},
				}},
				Ledgers: []WindowLedger{{
					Start: simtime.Time(30 * time.Second),
					Ledger: transfer.Ledger{
						TransferID: 42, From: "NEU", To: "NUS",
						Size: 1 << 20, ChunkBytes: 1 << 18,
						Acked: []int{0, 1, 3},
					},
				}},
			},
			{Site: "WEU", Index: 1},
		},
		Sink: SinkState{
			Site:      "NUS",
			Completed: []simtime.Time{0},
			Global:    []stream.KeyCell{{Key: "k1", Count: 10, Sum: 20, Min: 0.5, Max: 5}},
			Partial: []PartialWindow{{
				Start:   simtime.Time(30 * time.Second),
				End:     simtime.Time(60 * time.Second),
				Sources: []int{1},
				Cells:   []stream.KeyCell{{Key: "k3", Count: 2, Sum: 2, Min: 1, Max: 1}},
			}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	b := ck.Encode()
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != ck.Seq || got.At != ck.At {
		t.Fatalf("header mismatch: %+v", got)
	}
	b2 := got.Encode()
	if !bytes.Equal(b, b2) {
		t.Fatal("decode->encode is not the identity")
	}
	// Deterministic serialization: encoding the same state twice is
	// byte-identical.
	if !bytes.Equal(ck.Encode(), ck.Encode()) {
		t.Fatal("double encode differs")
	}
	if got.Sources[0].Ledgers[0].Ledger.TransferID != 42 {
		t.Fatalf("ledger lost: %+v", got.Sources[0].Ledgers)
	}
	if len(got.Sink.Partial) != 1 || got.Sink.Partial[0].Sources[0] != 1 {
		t.Fatalf("sink partial lost: %+v", got.Sink.Partial)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	b := sampleCheckpoint().Encode()
	if _, err := DecodeCheckpoint(b[:10]); err == nil {
		t.Fatal("truncated checkpoint decoded")
	}
	flip := append([]byte(nil), b...)
	flip[len(flip)/2] ^= 0xff
	if _, err := DecodeCheckpoint(flip); err == nil {
		t.Fatal("bit-flipped checkpoint decoded")
	}
	bad := append([]byte(nil), b...)
	copy(bad, "NOTMAGIC")
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("wrong magic decoded")
	}
}

// TestCheckpointRefusesVersion01: a well-formed blob of the previous
// encoding — SAGECP01 magic, FNV-64a trailer that matches its payload — is
// refused for its magic, before any checksum is compared: the two versions
// differ in nothing but the trailer, so a decoder that looked at the checksum
// first would report a good old checkpoint as a corrupt new one.
func TestCheckpointRefusesVersion01(t *testing.T) {
	b := sampleCheckpoint().Encode()
	old := append([]byte("SAGECP01"), b[len(checkpointMagic):len(b)-8]...)
	h := fnv.New64a()
	h.Write(old)
	old = binary.BigEndian.AppendUint64(old, h.Sum64())
	if len(old) != len(b) {
		t.Fatalf("version 01 blob is %d bytes, version 02 is %d: the trailer width moved", len(old), len(b))
	}
	_, err := DecodeCheckpoint(old)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("a SAGECP01 checkpoint: err = %v, want it refused by its magic", err)
	}
	// The same payload under the current magic and trailer decodes.
	if _, err := DecodeCheckpoint(b); err != nil {
		t.Fatal(err)
	}
}

var allKinds = []stream.AggKind{stream.Count, stream.Sum, stream.Mean, stream.Min, stream.Max}

// perKindCheckpoint is the fixture of TestCheckpointRoundTripPerKind: an
// aggregate of the kind over a three-key table plus an ad-hoc key, ±0 and +Inf
// among its values, snapshotted into a checkpoint as a source's open window
// and as the sink's global answer.
func perKindCheckpoint(kind stream.AggKind) (ck *Checkpoint, tb *stream.KeyTable, orig *stream.KeyedAgg, win stream.Window) {
	tb = stream.NewKeyTableOf([]string{"b", "a", "c"})
	orig = stream.NewKeyedAggDense(kind, tb)
	for i, v := range []float64{3.5, -1.25, math.Copysign(0, -1), 0, 7, math.Inf(1), -1.25, 2} {
		orig.AddValue([]string{"a", "b", "adhoc"}[i%3], v)
	}
	win = stream.Window{Start: simtime.Time(30 * time.Second), End: simtime.Time(60 * time.Second)}
	ck = &Checkpoint{Seq: 1, Sources: []SourceState{{Site: "NEU", Open: []WindowCells{
		{Start: win.Start, End: win.End, Cells: orig.Snapshot()},
	}}}, Sink: SinkState{Site: "NUS", Global: orig.Snapshot()}}
	return ck, tb, orig, win
}

// snapshotEvents returns the number of events folded into a: the counts of its
// snapshot cells.
func snapshotEvents(a *stream.KeyedAgg) int64 {
	var n int64
	for _, c := range a.Snapshot() {
		n += c.Count
	}
	return n
}

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics on outside bytes, and
// whatever it accepts re-encodes to exactly those bytes, which decode again
// to the same checkpoint. Each input is tried as it is and resealed — its
// last eight bytes replaced by the checksum of the rest — so mutations reach
// the parser behind the trailer check. Seeded with the per-kind round trip's
// encodings and the sample checkpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, kind := range allKinds {
		ck, _, _, _ := perKindCheckpoint(kind)
		f.Add(ck.Encode())
	}
	f.Add(sampleCheckpoint().Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= 8 {
			sealed := slices.Clone(b)
			binary.BigEndian.PutUint64(sealed[len(b)-8:], checksum(sealed[:len(b)-8]))
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			ck, err := DecodeCheckpoint(in)
			if err != nil {
				continue
			}
			re := ck.Encode()
			if !bytes.Equal(re, in) {
				t.Fatalf("accepted %x, re-encoded as %x", in, re)
			}
			again, err := DecodeCheckpoint(re)
			if err != nil {
				t.Fatalf("re-encoding refused: %v", err)
			}
			if !bytes.Equal(again.Encode(), re) {
				t.Fatalf("re-encoding decodes to a different checkpoint: %+v, was %+v", again, ck)
			}
		}
	})
}

// TestCheckpointRoundTripPerKind: an aggregate of each kind, snapshotted into
// a checkpoint, encoded, decoded and restored — into a sink-style dense
// aggregate and into an open window — reports what it reported before, bit
// for bit, and goes on merging as the original does. A record is 32 bytes
// plus the key whatever the kind: the aggregate fills in the count and its
// kind's field and leaves the others zero.
func TestCheckpointRoundTripPerKind(t *testing.T) {
	var sizes []int
	for _, kind := range allKinds {
		ck, tb, orig, win := perKindCheckpoint(kind)
		for _, c := range ck.Sink.Global {
			zero := 0
			for _, f := range []float64{c.Sum, c.Min, c.Max} {
				if math.Float64bits(f) == 0 {
					zero++
				}
			}
			if zero < 2 {
				t.Fatalf("%v: cell %+v fills in more than its kind's field", kind, c)
			}
		}
		b := ck.Encode()
		sizes = append(sizes, len(b))
		got, err := DecodeCheckpoint(b)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}

		sink := stream.NewKeyedAggDense(kind, tb)
		for _, c := range got.Sink.Global {
			sink.RestoreCell(c)
		}
		w := stream.NewWindowAggDense(30*time.Second, kind, tb)
		open := got.Sources[0].Open[0]
		w.RestoreWindow(stream.Window{Start: open.Start, End: open.End}, open.Cells)
		// Both go on folding after the restore, as the original does.
		more := stream.Event{Key: "a", KeyID: 2, Value: -8, Time: win.Start + 1}
		orig.Add(more)
		sink.Add(more)
		w.Add(more)
		closed := w.Advance(win.End)
		if len(closed) != 1 || closed[0].Window != win {
			t.Fatalf("%v: restored window closed as %+v", kind, closed)
		}
		for name, agg := range map[string]*stream.KeyedAgg{"sink": sink, "window": closed[0].Agg} {
			want, have := orig.Result(), agg.Result()
			if len(want) != len(have) {
				t.Fatalf("%v/%s: restored %+v, want %+v", kind, name, have, want)
			}
			for i := range want {
				if want[i].Key != have[i].Key || math.Float64bits(want[i].Value) != math.Float64bits(have[i].Value) {
					t.Fatalf("%v/%s: restored %+v, want %+v", kind, name, have[i], want[i])
				}
			}
			if snapshotEvents(agg) != snapshotEvents(orig) || agg.SerializedBytes() != orig.SerializedBytes() {
				t.Fatalf("%v/%s: %d events %d bytes, want %d and %d", kind, name,
					snapshotEvents(agg), agg.SerializedBytes(), snapshotEvents(orig), orig.SerializedBytes())
			}
		}
	}
	for _, n := range sizes {
		if n != sizes[0] {
			t.Fatalf("encoded sizes by kind %v: the record width depends on the kind", sizes)
		}
	}
}

func TestBatchLogRetentionAndTrim(t *testing.T) {
	l := NewBatchLog()
	win := func(i int) LoggedWindow {
		return LoggedWindow{
			Window: stream.Window{
				Start: simtime.Time(i) * simtime.Time(30*time.Second),
				End:   simtime.Time(i+1) * simtime.Time(30*time.Second),
			},
			Events: 10 * (i + 1),
		}
	}
	// Retention is unbounded: every appended window stays until a trim.
	for i := 0; i < 100; i++ {
		l.Append(0, win(i))
	}
	if l.Len(0) != 100 {
		t.Fatalf("len = %d, want 100 before any trim", l.Len(0))
	}
	if w, ok := l.Get(0, win(3).Window.Start); !ok || w.Events != 40 {
		t.Fatalf("retained window lost: %+v %v", w, ok)
	}
	// Trim behind a checkpoint frontier.
	l.TrimThrough(0, win(98).Window.End)
	if l.Len(0) != 1 {
		t.Fatalf("len after trim = %d, want 1", l.Len(0))
	}
	if _, ok := l.Get(0, win(3).Window.Start); ok {
		t.Fatal("trimmed window still retrievable")
	}
	if w, ok := l.Get(0, win(99).Window.Start); !ok || w.Events != 1000 {
		t.Fatalf("window past the frontier lost: %+v %v", w, ok)
	}
}

func TestPlanFailoverPicksWidestReachable(t *testing.T) {
	topo := cloud.DefaultAzure()
	sites := topo.SiteIDs()
	// Graph where NUS is best-connected, SUS second.
	g := route.GraphFromEstimates(sites, func(from, to cloud.SiteID) float64 {
		if from == to {
			return 1000
		}
		l := topo.Link(from, to)
		if l == nil {
			return 0
		}
		return l.BaseMBps
	})
	sources := []cloud.SiteID{cloud.NorthEU, cloud.WestEU}

	dead := cloud.NorthUS
	got, ok := PlanFailover(g, topo, sources, func(c cloud.SiteID) bool { return c == dead })
	if !ok {
		t.Fatal("no failover candidate in a healthy topology")
	}
	if got == dead {
		t.Fatal("planner picked the excluded dead sink")
	}
	// The winner must beat (or tie) every other admissible candidate's
	// worst-case source bottleneck.
	score := func(cand cloud.SiteID) float64 {
		s := 1e18
		for _, src := range sources {
			if src == cand {
				continue
			}
			p, ok := g.WidestPath(src, cand)
			if !ok {
				return -1
			}
			if p.Bottleneck < s {
				s = p.Bottleneck
			}
		}
		return s
	}
	for _, cand := range sites {
		if cand == dead {
			continue
		}
		if score(cand) > score(got) {
			t.Fatalf("candidate %s scores %.1f > winner %s %.1f", cand, score(cand), got, score(got))
		}
	}

	// A source site itself is a valid sink (no WAN hop for its own partials).
	got2, ok := PlanFailover(g, topo, []cloud.SiteID{cloud.NorthEU}, func(c cloud.SiteID) bool {
		return c != cloud.NorthEU
	})
	if !ok || got2 != cloud.NorthEU {
		t.Fatalf("co-located failover = %v %v, want NEU", got2, ok)
	}

	// Everything excluded: no candidate.
	if _, ok := PlanFailover(g, topo, sources, func(cloud.SiteID) bool { return true }); ok {
		t.Fatal("planner invented a candidate")
	}
}

// TestBatchLogDropsReleaseStorage: a trim compacts a source's windows in
// place; the slots it vacates past the new length must not keep
// pointing at the dropped windows' aggregates, or a trimmed window stays
// reachable — and uncollectable — for as long as the log lives.
func TestBatchLogDropsReleaseStorage(t *testing.T) {
	win := func(i int) LoggedWindow {
		w := simtime.Time(30 * time.Second)
		return LoggedWindow{
			Window: stream.Window{Start: simtime.Time(i) * w, End: simtime.Time(i+1) * w},
			Agg:    stream.NewKeyedAgg(stream.Sum),
		}
	}
	vacated := func(l *BatchLog) []LoggedWindow {
		ws := l.Windows(0)
		return ws[len(ws):cap(ws)]
	}
	check := func(what string, l *BatchLog, wantLen int) {
		t.Helper()
		if l.Len(0) != wantLen {
			t.Fatalf("%s: len = %d, want %d", what, l.Len(0), wantLen)
		}
		for _, w := range l.Windows(0) {
			if w.Agg == nil {
				t.Fatalf("%s: retained window %v lost its aggregate", what, w.Window)
			}
		}
		for i, w := range vacated(l) {
			if w.Agg != nil {
				t.Fatalf("%s: vacated slot %d still holds window %v's aggregate", what, i, w.Window)
			}
		}
	}

	trimmed := NewBatchLog()
	for i := 0; i < 6; i++ {
		trimmed.Append(0, win(i))
	}
	trimmed.TrimThrough(0, win(3).Window.End)
	check("trim", trimmed, 2)
	if got := trimmed.Windows(0)[0].Window; got != win(4).Window {
		t.Fatalf("trim kept %v first, want %v", got, win(4).Window)
	}
}

// TestCheckpointCellOrderDoesNotMatter: the order of cells inside a
// checkpoint follows the snapshot's storage order and is no longer sorted,
// so recovery must not depend on it. A checkpoint whose every cell list is
// permuted still decodes, to the same size, and restores to the same
// aggregates.
func TestCheckpointCellOrderDoesNotMatter(t *testing.T) {
	ck := sampleCheckpoint()
	for i := 0; i < 40; i++ {
		ck.Sink.Global = append(ck.Sink.Global, stream.KeyCell{
			Key: fmt.Sprintf("g%02d", i*7%40), Count: int64(i + 1), Sum: float64(i) / 3, Min: -float64(i), Max: float64(i),
		})
	}
	permuted := sampleCheckpoint()
	permuted.Sink.Global = slices.Clone(ck.Sink.Global)
	lists := []*[]stream.KeyCell{
		&permuted.Sink.Global, &permuted.Sink.Partial[0].Cells, &permuted.Sources[0].Open[0].Cells,
	}
	for _, l := range lists {
		slices.Reverse(*l)
		if n := len(*l); n > 3 {
			(*l)[1], (*l)[n-2] = (*l)[n-2], (*l)[1]
		}
	}

	a, b := ck.Encode(), permuted.Encode()
	if len(a) != len(b) {
		t.Fatalf("permuting cells changed the encoded size: %d vs %d", len(b), len(a))
	}
	if bytes.Equal(a, b) {
		t.Fatal("the permutation did not reach the bytes: the test checks nothing")
	}
	want, err := DecodeCheckpoint(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("permuted checkpoint does not decode: %v", err)
	}
	restore := func(cells []stream.KeyCell) []stream.KV {
		agg := stream.NewKeyedAggDense(stream.Mean, stream.NewKeyTableOf([]string{"k2", "g05"}))
		for _, c := range cells {
			agg.RestoreCell(c)
		}
		return agg.Result()
	}
	pairs := [][2][]stream.KeyCell{
		{want.Sink.Global, got.Sink.Global},
		{want.Sink.Partial[0].Cells, got.Sink.Partial[0].Cells},
		{want.Sources[0].Open[0].Cells, got.Sources[0].Open[0].Cells},
	}
	for i, p := range pairs {
		if w, g := restore(p[0]), restore(p[1]); len(w) == 0 || !slices.Equal(w, g) {
			t.Fatalf("cell list %d restores to %+v, want %+v", i, g, w)
		}
	}
}

// TestAppendEncodeReusesBuffer: encoding after a prefix leaves the prefix
// alone and checksums only the checkpoint, and encoding into a spent buffer
// gives Encode's bytes without allocating.
func TestAppendEncodeReusesBuffer(t *testing.T) {
	ck := sampleCheckpoint()
	want := ck.Encode()
	got := ck.AppendEncode([]byte("prefix"))
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatal("AppendEncode after a prefix differs from Encode")
	}
	buf := bytes.Repeat([]byte{0xee}, 2*len(want))
	if buf = ck.AppendEncode(buf[:0]); !bytes.Equal(buf, want) {
		t.Fatal("AppendEncode into a spent buffer differs from Encode")
	}
	if n := testing.AllocsPerRun(20, func() { buf = ck.AppendEncode(buf[:0]) }); n != 0 {
		t.Fatalf("%v allocs per encode into a buffer that fits, want 0", n)
	}
}
