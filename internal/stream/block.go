package stream

import (
	"slices"
	"time"

	"sage/internal/cloud"
	"sage/internal/simtime"
)

// Block is a run of events from one producer in columnar form: what a site
// operator generates and folds, 12 bytes an event where an Event is 48. Event
// i has key Table.Key(IDs[i]), value Values[i], time From + i·Step and site
// Site. Timestamps are implicit because a producer emits a block evenly
// spaced, and the engine's stage draws each window's blocks inside the
// window, so the fold reads none; key strings are absent because an
// aggregate over the same table indexes cells by ID. A consumer that wants
// the struct materialises it (AppendEvents).
//
// Every ID must be an ID of Table (1 … Table.Len()), IDs and Values the same
// length. The producer owns the columns and refills them: a block is valid
// until its producer's next fill.
type Block struct {
	Table  *KeyTable
	IDs    []int32
	Values []float64
	From   simtime.Time
	Step   time.Duration
	Site   cloud.SiteID
}

// Event materialises event i.
func (b *Block) Event(i int) Event {
	return Event{
		Key:   b.Table.Key(int(b.IDs[i])),
		Value: b.Values[i],
		Time:  b.From + simtime.Time(i)*b.Step,
		Site:  b.Site,
	}
}

// AppendEvents materialises the block's events, in order, onto dst and
// returns the extended slice.
func (b *Block) AppendEvents(dst []Event) []Event {
	dst = slices.Grow(dst, len(b.IDs))
	for i := range b.IDs {
		dst = append(dst, b.Event(i))
	}
	return dst
}

// Map hands each event's key and value, in order, to f and compacts the
// columns in place to the events f keeps, with the values it returns. The IDs
// stay: f cannot move an event to another key.
func (b *Block) Map(f MapFunc) {
	k := 0
	for i, id := range b.IDs {
		if v, ok := f(b.Table.Key(int(id)), b.Values[i]); ok {
			b.IDs[k], b.Values[k] = id, v
			k++
		}
	}
	b.IDs, b.Values = b.IDs[:k], b.Values[:k]
}

// AddBlock folds a block into the aggregate: the same result, bit for bit, as
// AddValue of each of the block's events' key and value in order — same
// per-key accumulation order — without materialising them. Event times are
// not read. The block must be over the aggregate's own table, which is
// checked here, once, by comparing the tables: its IDs index this table's
// cells and no other's. A block over another table, or onto a map-backed
// aggregate, panics before it folds anything.
func (a *KeyedAgg) AddBlock(b *Block) {
	if b.Table != a.table || a.table == nil {
		panic("stream: folding a block over another table")
	}
	a.addColumns(b.IDs, b.Values)
}

// addColumns folds values into the dense cells of their IDs, in order: one
// loop per accumulator, chosen here so that no per-event step asks the kind.
// The IDs are trusted to be IDs of a.table; one outside it panics on the index.
func (a *KeyedAgg) addColumns(ids []int32, vals []float64) {
	// Indexing from ID 1 makes the bounds check reject ID 0 (dense[0] is
	// never a key's cell) along with everything past the table.
	cells := a.dense[1:]
	vals = vals[:len(ids)]
	live := a.live
	switch a.Kind {
	case Min:
		for i, id := range ids {
			c, v := &cells[id-1], vals[i]
			if c.count == 0 {
				live++
				c.acc = v
			} else if below(v, c.acc) {
				c.acc = v
			}
			c.count++
		}
	case Max:
		for i, id := range ids {
			c, v := &cells[id-1], vals[i]
			if c.count == 0 {
				live++
				c.acc = v
			} else if above(v, c.acc) {
				c.acc = v
			}
			c.count++
		}
	default:
		for i, id := range ids {
			c := &cells[id-1]
			if c.count == 0 {
				live++
			}
			c.count++
			c.acc += vals[i]
		}
	}
	a.live = live
}
