package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"sage/internal/cloud"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/transfer"
)

// Checkpoint is a consistent snapshot of one job's distributed state at a
// virtual-time instant: for every source site the windows the sink
// acknowledged and the ledgers of its in-flight transfers, and for the sink
// the merged global aggregate plus partially-merged windows. A source
// operator holds no window open between stages (a stage folds a window's
// events into the one partial its commit ships), so a source has no cells to
// record. It serializes deterministically
// (cells in the order the snapshot lists them — stream.AppendSnapshot's
// storage order, fixed by the order the job interned its key tables in —
// fixed-width fields, checksummed), so the same state always produces the
// same bytes — the property the twice-run determinism suite leans on.
// Decoding and restoring do not depend on the order of cells in a list.
type Checkpoint struct {
	// Seq numbers checkpoints of one job from 1; At is the snapshot time.
	Seq int
	At  simtime.Time
	// Sources holds one entry per job source, in job-spec order.
	Sources []SourceState
	Sink    SinkState
}

// SourceState is the checkpointed state of one source-site operator.
type SourceState struct {
	Site cloud.SiteID
	// Index is the source's slot in the job spec; it, not the site, is the
	// identity (two sources may share a site).
	Index int
	// Acked lists window start times whose partials the sink acknowledged,
	// sorted ascending.
	Acked []simtime.Time
	// Ledgers snapshot in-flight transfers, sorted by window start.
	Ledgers []WindowLedger
}

// WindowLedger pairs a window with the ledger of the transfer shipping it.
type WindowLedger struct {
	Start  simtime.Time
	Ledger transfer.Ledger
}

// SinkState is the checkpointed state of the meta-reducer.
type SinkState struct {
	Site cloud.SiteID
	// Completed lists window starts fully merged into Global, sorted.
	Completed []simtime.Time
	// Global is the job-lifetime merged aggregate.
	Global []stream.KeyCell
	// Partial holds windows with some but not all partials arrived, sorted
	// by start.
	Partial []PartialWindow
}

// PartialWindow is one partially-merged window at the sink.
type PartialWindow struct {
	Start, End simtime.Time
	// Sources lists the job source indices whose partials arrived, sorted.
	Sources []int
	Cells   []stream.KeyCell
}

// checkpointMagic versions the encoding; bump on layout changes. 02 replaced
// 01's FNV-64a trailer with CRC-32C.
const checkpointMagic = "SAGECP02"

// castagnoli is the CRC-32C table: the polynomial with a hardware instruction
// on amd64 and arm64, so checksumming tens of megabytes of checkpoints a run
// goes at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the trailer of an encoded checkpoint: the CRC-32C of everything
// before it, widened to the trailer's eight bytes.
func checksum(b []byte) uint64 { return uint64(crc32.Checksum(b, castagnoli)) }

// Encode serializes the checkpoint into a fresh buffer: a new Encoder's
// first round. Encoding the same checkpoint twice yields identical bytes; the
// trailer is a CRC-32C checksum over everything before it.
func (c *Checkpoint) Encode() []byte { return new(Encoder).Encode(c, false) }

// Encoder encodes the successive checkpoints of one job. It alternates
// between two buffers, so the latest encoding stays whole while the next one
// is written. The sink's global cell list holds a cell per key of the job and
// does not change between two window completions, so a round that says so
// copies that list's bytes from the latest encoding instead of encoding its
// cells again. The checksum still covers every byte.
type Encoder struct {
	last, spare []byte
	// global is where the global cell list lies in last.
	global [2]int
}

// Encode encodes c and returns the bytes c.Encode() would, which stay valid
// until the second Encode after this one. Once both buffers have grown to a
// round's size, a round allocates nothing. sameGlobal promises that
// c.Sink.Global holds the cells the previous Encode encoded, in the same
// order.
func (e *Encoder) Encode(c *Checkpoint, sameGlobal bool) []byte {
	var global []byte
	if sameGlobal && e.last != nil {
		global = e.last[e.global[0]:e.global[1]]
	}
	b, at := c.encodeInto(e.spare, global)
	e.spare, e.last, e.global = e.last, b, at
	return b
}

// Last returns the latest encoding, nil before the first.
func (e *Encoder) Last() []byte { return e.last }

// encodeInto serializes the checkpoint over buf's storage, growing it as
// needed, and returns the bytes and where the global cell list lies in them.
// Given that list's encoded bytes, it copies them in place of encoding
// c.Sink.Global.
func (c *Checkpoint) encodeInto(buf, global []byte) ([]byte, [2]int) {
	e := ckptEncoder{buf: buf[:0]}
	e.raw(checkpointMagic)
	e.u64(uint64(c.Seq))
	e.i64(int64(c.At))
	e.u64(uint64(len(c.Sources)))
	for i := range c.Sources {
		s := &c.Sources[i]
		e.str(string(s.Site))
		e.u64(uint64(s.Index))
		e.u64(uint64(len(s.Acked)))
		for _, t := range s.Acked {
			e.i64(int64(t))
		}
		// The layout keeps the count of the open windows a source once
		// carried; there are none.
		e.u64(0)
		e.u64(uint64(len(s.Ledgers)))
		for _, wl := range s.Ledgers {
			e.i64(int64(wl.Start))
			e.ledger(&wl.Ledger)
		}
	}
	e.str(string(c.Sink.Site))
	e.u64(uint64(len(c.Sink.Completed)))
	for _, t := range c.Sink.Completed {
		e.i64(int64(t))
	}
	from := len(e.buf)
	if global != nil {
		e.buf = append(e.buf, global...)
	} else {
		e.cells(c.Sink.Global)
	}
	at := [2]int{from, len(e.buf)}
	e.u64(uint64(len(c.Sink.Partial)))
	for _, p := range c.Sink.Partial {
		e.i64(int64(p.Start))
		e.i64(int64(p.End))
		e.u64(uint64(len(p.Sources)))
		for _, idx := range p.Sources {
			e.u64(uint64(idx))
		}
		e.cells(p.Cells)
	}
	e.u64(checksum(e.buf))
	return e.buf, at
}

// DecodeCheckpoint parses bytes produced by Encode, verifying the magic and
// checksum.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) { return decode(b, false) }

// DecodeSources is DecodeCheckpoint for a reader that needs only the
// sources' entries (a source site failing or returning): it makes the same
// checks and accepts exactly the bytes DecodeCheckpoint accepts, but walks
// over the sink's section — its cell lists hold a cell per key of the job —
// without building it.
func DecodeSources(b []byte) ([]SourceState, error) {
	c, err := decode(b, true)
	if err != nil {
		return nil, err
	}
	return c.Sources, nil
}

// decode is the one checkpoint parser; with sourcesOnly it checks the sink's
// section without keeping it.
func decode(b []byte, sourcesOnly bool) (*Checkpoint, error) {
	if len(b) < len(checkpointMagic)+8 {
		return nil, errors.New("resilience: checkpoint truncated")
	}
	if string(b[:len(checkpointMagic)]) != checkpointMagic {
		return nil, errors.New("resilience: bad checkpoint magic")
	}
	if binary.BigEndian.Uint64(b[len(b)-8:]) != checksum(b[:len(b)-8]) {
		return nil, errors.New("resilience: checkpoint checksum mismatch")
	}
	d := ckptDecoder{buf: b[:len(b)-8], off: len(checkpointMagic)}
	c := &Checkpoint{}
	c.Seq = int(d.u64())
	c.At = simtime.Time(d.i64())
	c.Sources = make([]SourceState, d.len())
	for i := range c.Sources {
		s := &c.Sources[i]
		s.Site = cloud.SiteID(d.str())
		s.Index = int(d.u64())
		s.Acked = d.times()
		if d.u64() != 0 {
			d.err = errors.New("resilience: checkpoint holds open windows")
		}
		s.Ledgers = make([]WindowLedger, d.len())
		for j := range s.Ledgers {
			s.Ledgers[j].Start = simtime.Time(d.i64())
			s.Ledgers[j].Ledger = d.ledger()
		}
	}
	d.skip = sourcesOnly
	c.Sink.Site = cloud.SiteID(d.str())
	c.Sink.Completed = d.times()
	c.Sink.Global = d.cells()
	c.Sink.Partial = make([]PartialWindow, d.len())
	for i := range c.Sink.Partial {
		p := &c.Sink.Partial[i]
		p.Start = simtime.Time(d.i64())
		p.End = simtime.Time(d.i64())
		p.Sources = make([]int, d.len())
		for j := range p.Sources {
			p.Sources[j] = int(d.u64())
		}
		p.Cells = d.cells()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("resilience: %d trailing checkpoint bytes", len(d.buf)-d.off)
	}
	return c, nil
}

// ckptEncoder appends fixed-width big-endian fields to a buffer.
type ckptEncoder struct{ buf []byte }

func (e *ckptEncoder) raw(s string) { e.buf = append(e.buf, s...) }
func (e *ckptEncoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *ckptEncoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *ckptEncoder) str(s string) { e.u64(uint64(len(s))); e.raw(s) }

// cells writes a cell list: its length, then per cell the key as a string
// and the four accumulator fields. A list can hold a cell per key of the job,
// so it is not appended field by field: the buffer grows once to the list's
// encoded size, and each cell is stored at fixed offsets into it.
func (e *ckptEncoder) cells(cs []stream.KeyCell) {
	e.u64(uint64(len(cs)))
	n := cellBytes * len(cs)
	for i := range cs {
		n += len(cs[i].Key)
	}
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:at+n]
	b := e.buf[at:]
	for i := range cs {
		c := &cs[i]
		k := len(c.Key)
		binary.BigEndian.PutUint64(b, uint64(k))
		copy(b[8:], c.Key)
		r := b[8+k : cellBytes+k]
		binary.BigEndian.PutUint64(r[0:], uint64(c.Count))
		binary.BigEndian.PutUint64(r[8:], math.Float64bits(c.Sum))
		binary.BigEndian.PutUint64(r[16:], math.Float64bits(c.Min))
		binary.BigEndian.PutUint64(r[24:], math.Float64bits(c.Max))
		b = b[cellBytes+k:]
	}
}

// cellBytes is a cell's encoded size but for its key: the key's length and
// the four fixed64 accumulator fields.
const cellBytes = 8 + 32

func (e *ckptEncoder) ledger(l *transfer.Ledger) {
	e.u64(l.TransferID)
	e.str(string(l.From))
	e.str(string(l.To))
	e.i64(l.Size)
	e.i64(l.ChunkBytes)
	e.u64(uint64(len(l.Acked)))
	for _, i := range l.Acked {
		e.u64(uint64(i))
	}
}

// ckptDecoder reads the encoder's fields back, sticky-erroring on underrun.
// With skip set, strings, time lists and cell lists are checked and passed
// over instead of built (read as empty).
type ckptDecoder struct {
	buf  []byte
	off  int
	err  error
	skip bool
}

func (d *ckptDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = errors.New("resilience: checkpoint underrun")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *ckptDecoder) i64() int64   { return int64(d.u64()) }
func (d *ckptDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// len reads a collection length, bounding it by the remaining bytes so a
// corrupt length cannot force a huge allocation.
func (d *ckptDecoder) len() int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.err = errors.New("resilience: checkpoint length field out of range")
		return 0
	}
	return int(n)
}

func (d *ckptDecoder) str() string {
	n := d.len()
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.buf) {
		d.err = errors.New("resilience: checkpoint underrun")
		return ""
	}
	if d.skip {
		d.off += n
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// pass skips n fixed-width fields, failing as reading them would.
func (d *ckptDecoder) pass(n int) {
	if d.err == nil && d.off+8*n > len(d.buf) {
		d.err = errors.New("resilience: checkpoint underrun")
		return
	}
	d.off += 8 * n
}

func (d *ckptDecoder) times() []simtime.Time {
	n := d.len()
	if d.skip {
		d.pass(n)
		return nil
	}
	out := make([]simtime.Time, n)
	for i := range out {
		out[i] = simtime.Time(d.i64())
	}
	return out
}

func (d *ckptDecoder) cells() []stream.KeyCell {
	n := d.len()
	if d.skip {
		for i := 0; i < n && d.err == nil; i++ {
			d.str()
			d.pass(4)
		}
		return nil
	}
	out := make([]stream.KeyCell, n)
	for i := range out {
		out[i].Key = d.str()
		out[i].Count = d.i64()
		out[i].Sum = d.f64()
		out[i].Min = d.f64()
		out[i].Max = d.f64()
	}
	return out
}

func (d *ckptDecoder) ledger() transfer.Ledger {
	var l transfer.Ledger
	l.TransferID = d.u64()
	l.From = cloud.SiteID(d.str())
	l.To = cloud.SiteID(d.str())
	l.Size = d.i64()
	l.ChunkBytes = d.i64()
	l.Acked = make([]int, d.len())
	for i := range l.Acked {
		l.Acked[i] = int(d.u64())
	}
	return l
}
