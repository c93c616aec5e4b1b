package resilience

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/transfer"
)

// refEncode is the checkpoint encoder as it was written before cell lists
// were stored at fixed offsets: one append per field, nothing shared with the
// package's encoder. It is the reference the encoder's bytes are held to.
func refEncode(c *Checkpoint, dst []byte) []byte {
	start := len(dst)
	u64 := func(v uint64) { dst = binary.BigEndian.AppendUint64(dst, v) }
	str := func(s string) { u64(uint64(len(s))); dst = append(dst, s...) }
	cells := func(cs []stream.KeyCell) {
		u64(uint64(len(cs)))
		for _, c := range cs {
			str(c.Key)
			u64(uint64(c.Count))
			u64(math.Float64bits(c.Sum))
			u64(math.Float64bits(c.Min))
			u64(math.Float64bits(c.Max))
		}
	}
	times := func(ts []simtime.Time) {
		u64(uint64(len(ts)))
		for _, t := range ts {
			u64(uint64(t))
		}
	}
	dst = append(dst, checkpointMagic...)
	u64(uint64(c.Seq))
	u64(uint64(c.At))
	u64(uint64(len(c.Sources)))
	for _, s := range c.Sources {
		str(string(s.Site))
		u64(uint64(s.Index))
		times(s.Acked)
		u64(0) // open windows: none
		u64(uint64(len(s.Ledgers)))
		for _, wl := range s.Ledgers {
			u64(uint64(wl.Start))
			l := wl.Ledger
			u64(l.TransferID)
			str(string(l.From))
			str(string(l.To))
			u64(uint64(l.Size))
			u64(uint64(l.ChunkBytes))
			u64(uint64(len(l.Acked)))
			for _, i := range l.Acked {
				u64(uint64(i))
			}
		}
	}
	str(string(c.Sink.Site))
	times(c.Sink.Completed)
	cells(c.Sink.Global)
	u64(uint64(len(c.Sink.Partial)))
	for _, p := range c.Sink.Partial {
		u64(uint64(p.Start))
		u64(uint64(p.End))
		u64(uint64(len(p.Sources)))
		for _, idx := range p.Sources {
			u64(uint64(idx))
		}
		cells(p.Cells)
	}
	return binary.BigEndian.AppendUint64(dst, checksum(dst[start:]))
}

// genCheckpoint builds a checkpoint from a seeded generator: cell lists
// snapshotted from aggregates of the given kind, empty, or of raw cells with
// every field set (NaN, infinities, -0 among them); keys from empty to
// several kilobytes; any number of sources, ledgers and partials, zero
// included.
func genCheckpoint(r *rng.Rand, kind stream.AggKind) *Checkpoint {
	key := func() string {
		switch r.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat(string(rune('a'+r.Intn(26))), 256+r.Intn(4096))
		default:
			return fmt.Sprintf("sensor-%d", r.Intn(1000))
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64}
	num := func() float64 {
		if r.Intn(4) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64() * 1e3
	}
	cells := func() []stream.KeyCell {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			var cs []stream.KeyCell
			for n := r.Intn(40); n > 0; n-- {
				cs = append(cs, stream.KeyCell{Key: key(), Count: int64(r.Uint64()), Sum: num(), Min: num(), Max: num()})
			}
			return cs
		default:
			a := stream.NewKeyedAgg(kind)
			for n := r.Intn(200); n > 0; n-- {
				a.AddValue(key(), num())
			}
			return a.AppendSnapshot(nil)
		}
	}
	times := func() []simtime.Time {
		ts := make([]simtime.Time, r.Intn(6))
		for i := range ts {
			ts[i] = simtime.Time(r.Uint64())
		}
		return ts
	}
	ck := &Checkpoint{Seq: r.Intn(1 << 20), At: simtime.Time(r.Uint64())}
	for i := r.Intn(4); i > 0; i-- {
		s := SourceState{Site: cloud.SiteID(key()), Index: r.Intn(64), Acked: times()}
		for j := r.Intn(3); j > 0; j-- {
			l := transfer.Ledger{TransferID: r.Uint64(), From: cloud.SiteID(key()), To: cloud.SiteID(key()),
				Size: int64(r.Uint64()), ChunkBytes: int64(r.Uint64())}
			for k := r.Intn(8); k > 0; k-- {
				l.Acked = append(l.Acked, r.Intn(1<<30))
			}
			s.Ledgers = append(s.Ledgers, WindowLedger{Start: simtime.Time(r.Uint64()), Ledger: l})
		}
		ck.Sources = append(ck.Sources, s)
	}
	ck.Sink = SinkState{Site: cloud.SiteID(key()), Completed: times(), Global: cells()}
	for i := r.Intn(3); i > 0; i-- {
		p := PartialWindow{Start: simtime.Time(r.Uint64()), End: simtime.Time(r.Uint64()), Cells: cells()}
		for j := r.Intn(5); j > 0; j-- {
			p.Sources = append(p.Sources, r.Intn(64))
		}
		ck.Sink.Partial = append(ck.Sink.Partial, p)
	}
	return ck
}

// TestEncodeMatchesPerFieldReference: the encoder writes the reference's
// bytes on generated checkpoints of every aggregate kind, encoded into a
// fresh buffer, into the spent buffers of an Encoder, and again in a round
// that copies the global cell list from the one before.
func TestEncodeMatchesPerFieldReference(t *testing.T) {
	r := rng.New(38)
	var enc Encoder
	for i := 0; i < 400; i++ {
		kind := allKinds[i%len(allKinds)]
		ck := genCheckpoint(r, kind)
		want := refEncode(ck, nil)
		if got := ck.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d (%v): encoded %d bytes, the reference %d; first difference at %d",
				i, kind, len(got), len(want), firstByteDiff(got, want))
		}
		if got := enc.Encode(ck, false); !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d (%v): encoded into spent buffers, %d bytes differ from the reference's %d",
				i, kind, len(got), len(want))
		}
		ck.Seq++
		if got := enc.Encode(ck, true); !bytes.Equal(got, refEncode(ck, nil)) {
			t.Fatalf("checkpoint %d (%v): a round copying the global list differs from the reference", i, kind)
		}
		if _, err := DecodeCheckpoint(want); err != nil {
			t.Fatalf("checkpoint %d (%v): %v", i, kind, err)
		}
	}
}

// firstByteDiff returns the first index where a and b differ.
func firstByteDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
