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
				Cells: []stream.KeyCell{
					{Key: "k3", Count: 2, Sum: 2, Min: 1, Max: 1},
					{Key: "k2", Count: 1, Sum: 9, Min: 9, Max: 9},
				},
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
	// The layout keeps a source's open-window count, always 0: a blob that
	// says 1, resealed so it passes the checksum, is refused by both decoders.
	src := sampleCheckpoint().Sources[0]
	at := len(checkpointMagic) + 8*3 + 8 + len(src.Site) + 8 + 8 + 8*len(src.Acked)
	if n := binary.BigEndian.Uint64(b[at:]); n != 0 {
		t.Fatalf("open-window count at byte %d reads %d, want 0", at, n)
	}
	open := slices.Clone(b)
	binary.BigEndian.PutUint64(open[at:], 1)
	binary.BigEndian.PutUint64(open[len(open)-8:], checksum(open[:len(open)-8]))
	if _, err := DecodeCheckpoint(open); err == nil || !strings.Contains(err.Error(), "open windows") {
		t.Fatalf("a checkpoint with an open window: err = %v, want it refused", err)
	}
	if _, err := DecodeSources(open); err == nil {
		t.Fatal("DecodeSources accepted a checkpoint with an open window")
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

// emptyCellCheckpoint is sampleCheckpoint with a count-0 cell in its
// partial window, where DecodeSources walks over the cells without keeping
// them.
func emptyCellCheckpoint() *Checkpoint {
	ck := sampleCheckpoint()
	ck.Sink.Partial[0].Cells[1].Count = 0
	return ck
}

// TestDecodeRefusesEmptyCells: a cell of count 0, in the global answer or a
// partial window, is refused by both decoders — a snapshot never holds one,
// and restoring one would count a key no event reached.
func TestDecodeRefusesEmptyCells(t *testing.T) {
	global := sampleCheckpoint()
	global.Sink.Global[0].Count = 0
	for name, ck := range map[string]*Checkpoint{"global": global, "partial": emptyCellCheckpoint()} {
		b := ck.Encode()
		_, err := DecodeCheckpoint(b)
		_, serr := DecodeSources(b)
		for _, e := range []error{err, serr} {
			if e == nil || !strings.Contains(e.Error(), "count 0") {
				t.Fatalf("%s: DecodeCheckpoint error %v, DecodeSources error %v; want both refused for the count", name, err, serr)
			}
		}
	}
}

var allKinds = []stream.AggKind{stream.Count, stream.Sum, stream.Mean, stream.Min, stream.Max}

// perKindCheckpoint is the fixture of TestCheckpointRoundTripPerKind: an
// aggregate of the kind over a three-key table plus an ad-hoc key, ±0 and +Inf
// among its values, snapshotted into a checkpoint as the sink's global answer.
func perKindCheckpoint(kind stream.AggKind) (ck *Checkpoint, tb *stream.KeyTable, orig *stream.KeyedAgg) {
	tb = stream.NewKeyTable(stream.NewKeyList("bac", []uint32{0, 1, 2, 3}))
	orig = stream.NewKeyedAggDense(kind, tb)
	for i, v := range []float64{3.5, -1.25, math.Copysign(0, -1), 0, 7, math.Inf(1), -1.25, 2} {
		orig.AddValue([]string{"a", "b", "adhoc"}[i%3], v)
	}
	ck = &Checkpoint{Seq: 1, Sources: []SourceState{{Site: "NEU"}},
		Sink: SinkState{Site: "NUS", Global: orig.AppendSnapshot(nil)}}
	return ck, tb, orig
}

// snapshotEvents returns the number of events folded into a: the counts of its
// snapshot cells.
func snapshotEvents(a *stream.KeyedAgg) int64 {
	var n int64
	for _, c := range a.AppendSnapshot(nil) {
		n += c.Count
	}
	return n
}

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics on outside bytes, and
// whatever it accepts re-encodes to exactly those bytes, which decode again
// to the same checkpoint. DecodeSources accepts exactly what DecodeCheckpoint
// accepts and returns the same sources. Each input is tried as it is and
// resealed — its last eight bytes replaced by the checksum of the rest — so
// mutations reach the parser behind the trailer check. Seeded with the
// per-kind round trip's encodings and the sample checkpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, kind := range allKinds {
		ck, _, _ := perKindCheckpoint(kind)
		f.Add(ck.Encode())
	}
	f.Add(sampleCheckpoint().Encode())
	f.Add(emptyCellCheckpoint().Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= 8 {
			sealed := slices.Clone(b)
			binary.BigEndian.PutUint64(sealed[len(b)-8:], checksum(sealed[:len(b)-8]))
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			ck, err := DecodeCheckpoint(in)
			srcs, serr := DecodeSources(in)
			if (err == nil) != (serr == nil) {
				t.Fatalf("DecodeCheckpoint error %v, DecodeSources error %v", err, serr)
			}
			if err != nil {
				continue
			}
			// Compared by encoding: cells may hold NaNs.
			if a, b := (&Checkpoint{Sources: srcs}).Encode(), (&Checkpoint{Sources: ck.Sources}).Encode(); !bytes.Equal(a, b) {
				t.Fatalf("DecodeSources returned %+v, DecodeCheckpoint %+v", srcs, ck.Sources)
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
// a checkpoint, encoded, decoded and restored into a sink-style dense
// aggregate reports what it reported before, bit for bit, and goes on
// folding as the original does. A record is 32 bytes
// plus the key whatever the kind: the aggregate fills in the count and its
// kind's field and leaves the others zero.
func TestCheckpointRoundTripPerKind(t *testing.T) {
	var sizes []int
	for _, kind := range allKinds {
		ck, tb, orig := perKindCheckpoint(kind)
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
		// It goes on folding after the restore, as the original does.
		more := stream.Block{Table: tb, IDs: []int32{2}, Values: []float64{-8}} // key "a"
		orig.AddBlock(&more)
		sink.AddBlock(&more)
		want, have := orig.Result(), sink.Result()
		if len(want) != len(have) {
			t.Fatalf("%v: restored %+v, want %+v", kind, have, want)
		}
		for i := range want {
			if want[i].Key != have[i].Key || math.Float64bits(want[i].Value) != math.Float64bits(have[i].Value) {
				t.Fatalf("%v: restored %+v, want %+v", kind, have[i], want[i])
			}
		}
		if snapshotEvents(sink) != snapshotEvents(orig) || sink.SerializedBytes() != orig.SerializedBytes() {
			t.Fatalf("%v: %d events %d bytes, want %d and %d", kind,
				snapshotEvents(sink), sink.SerializedBytes(), snapshotEvents(orig), orig.SerializedBytes())
		}
	}
	for _, n := range sizes {
		if n != sizes[0] {
			t.Fatalf("encoded sizes by kind %v: the record width depends on the kind", sizes)
		}
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

// FuzzCheckpointCellOrder: the order of cells inside a checkpoint follows
// the snapshot's storage order and is not sorted, so recovery must not
// depend on it. The input is a program: its first byte is how many cells
// (at most 40, each with its own key) join the sample checkpoint's global
// answer, and each later byte permutes one of two cell lists — the global
// answer and a partial window's — by reversing it, swapping two cells or
// rotating it (op%2 picks the list, op/2%3 the permutation; a swap reads two
// index bytes and a rotation one). The permuted checkpoint encodes to the
// same size, to the same bytes exactly when no list moved, decodes, and
// restores every list to the same aggregate. The seeds are: one reversal of
// each list and a swap of the global answer's second and second-to-last
// cells; a reversal of the partial window's list and a swap whose index
// bytes are missing; a rotation of each list and a swap of a cell with
// itself; two reversals that cancel and a self-swap, which move nothing.
func FuzzCheckpointCellOrder(f *testing.F) {
	f.Add([]byte{40, 0, 1, 2, 1, 39})
	f.Add([]byte{0, 1, 3})
	f.Add([]byte{12, 4, 5, 5, 1, 2, 4, 4})
	f.Add([]byte{3, 0, 0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		ck := sampleCheckpoint()
		for i := 0; i < int(prog[0])%41; i++ {
			ck.Sink.Global = append(ck.Sink.Global, stream.KeyCell{
				Key: fmt.Sprintf("g%02d", i*7%40), Count: int64(i + 1), Sum: float64(i) / 3, Min: -float64(i), Max: float64(i),
			})
		}
		permuted := sampleCheckpoint()
		permuted.Sink.Global = slices.Clone(ck.Sink.Global)
		permuted.Sink.Partial[0].Cells = slices.Clone(ck.Sink.Partial[0].Cells)
		lists := []*[]stream.KeyCell{&permuted.Sink.Global, &permuted.Sink.Partial[0].Cells}
		i := 1
		next := func() int {
			if i >= len(prog) {
				return 0
			}
			i++
			return int(prog[i-1])
		}
		for i < len(prog) {
			op := next()
			l := lists[op%2]
			n := len(*l)
			switch op / 2 % 3 {
			case 0:
				slices.Reverse(*l)
			case 1:
				a, b := next()%n, next()%n
				(*l)[a], (*l)[b] = (*l)[b], (*l)[a]
			case 2:
				k := next() % n
				*l = slices.Concat((*l)[k:], (*l)[:k])
			}
		}

		a, b := ck.Encode(), permuted.Encode()
		if len(a) != len(b) {
			t.Fatalf("permuting cells changed the encoded size: %d vs %d", len(b), len(a))
		}
		moved := !slices.Equal(ck.Sink.Global, permuted.Sink.Global) ||
			!slices.Equal(ck.Sink.Partial[0].Cells, permuted.Sink.Partial[0].Cells)
		if moved == bytes.Equal(a, b) {
			t.Fatalf("a permutation that moved cells (%v) left the bytes equal (%v)", moved, bytes.Equal(a, b))
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
			agg := stream.NewKeyedAggDense(stream.Mean, stream.NewKeyTable(stream.NewKeyList("k2g05", []uint32{0, 2, 5})))
			for _, c := range cells {
				agg.RestoreCell(c)
			}
			return agg.Result()
		}
		pairs := [][2][]stream.KeyCell{
			{want.Sink.Global, got.Sink.Global},
			{want.Sink.Partial[0].Cells, got.Sink.Partial[0].Cells},
		}
		for j, p := range pairs {
			if w, g := restore(p[0]), restore(p[1]); len(w) == 0 || !slices.Equal(w, g) {
				t.Fatalf("cell list %d restores to %+v, want %+v", j, g, w)
			}
		}
	})
}

// TestEncoderReusesGlobalSection: a round that says its global answer is the
// last round's copies that list's bytes, and what it returns is, byte for
// byte, Encode of the same checkpoint — the sources, the sequence and the
// partial windows around the copied list all changed, and the checksum
// covers it. Each encoding stays whole until the second round after it, and
// a round into buffers that fit allocates nothing.
func TestEncoderReusesGlobalSection(t *testing.T) {
	ck := sampleCheckpoint()
	ck.Sink.Global = []stream.KeyCell{
		{Key: "k1", Count: 10, Sum: 20, Min: 0.5, Max: 5},
		{Key: "kk2", Count: 1, Sum: -3, Min: -3, Max: -3},
		{Key: "k3", Count: 4, Sum: 8, Min: 1, Max: 3},
	}
	var enc Encoder
	if enc.Last() != nil {
		t.Fatal("Last before the first round is not nil")
	}
	first := enc.Encode(ck, true) // nothing to reuse yet
	if !bytes.Equal(first, ck.Encode()) {
		t.Fatal("a first round differs from Encode")
	}
	firstWant := bytes.Clone(first)
	global := ck.Sink.Global
	for round := 2; round <= 4; round++ {
		ck.Seq, ck.At = round, simtime.Time(round)*simtime.Time(30*time.Second)
		ck.Sources[0].Acked = ck.Sources[0].Acked[:round%2]
		ck.Sink.Partial[0].Sources = append(ck.Sink.Partial[0].Sources, round)
		// The same cells in a fresh list: the encoder copies bytes, so only
		// the caller's promise ties them to the last round's.
		ck.Sink.Global = slices.Clone(global)
		got := enc.Encode(ck, true)
		if want := ck.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: a reuse round's %d B differ from Encode's %d B", round, len(got), len(want))
		}
		if !bytes.Equal(enc.Last(), got) {
			t.Fatalf("round %d: Last is not the round's encoding", round)
		}
		if back, err := DecodeCheckpoint(got); err != nil || !slices.Equal(back.Sink.Global, global) {
			t.Fatalf("round %d: decoding gives %v, err %v", round, back, err)
		}
		if round == 2 && !bytes.Equal(first, firstWant) {
			t.Fatal("the round after the first overwrote it")
		}
	}
	ck.Sink.Global = ck.Sink.Global[:1]
	if got := enc.Encode(ck, false); !bytes.Equal(got, ck.Encode()) {
		t.Fatal("a round with a changed global answer differs from Encode")
	}
	for _, same := range []bool{false, true} {
		if n := testing.AllocsPerRun(20, func() { enc.Encode(ck, same) }); n != 0 {
			t.Fatalf("%v allocs per round into buffers that fit (sameGlobal %v), want 0", n, same)
		}
	}
}
