package stream

import (
	"slices"
	"time"

	"sage/internal/cloud"
	"sage/internal/simtime"
)

// Block is a run of events from one producer in columnar form: what a site
// operator generates and folds, 12 bytes an event where an Event is 56. Event
// i has key Table.Key(IDs[i]), value Values[i], time From + i·Step and site
// Site. Timestamps are implicit because a producer emits a block evenly
// spaced, and the only thing the window stage needs from them is where the
// block crosses a window boundary, which is arithmetic on From and Step; key
// strings are absent because an aggregate over the same table indexes cells
// by ID. A consumer that wants the struct materialises it (AppendEvents).
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
	id := int(b.IDs[i])
	return Event{
		Key:   b.Table.Key(id),
		KeyID: id,
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

// AddBlock folds a block into the aggregate: the same result, bit for bit, as
// Add of each of the block's events in order — same per-key accumulation
// order — without materialising them. Event times are not read. That a
// block's IDs belong to this aggregate's table is checked here, once, by
// comparing the tables, which is what add re-proves for every single event by
// comparing key strings; a block over any other table (or onto a map-backed
// aggregate) is folded through its events, where that per-event guard still
// stands.
func (a *KeyedAgg) AddBlock(b *Block) {
	if a.table == nil || b.Table != a.table {
		for i := range b.IDs {
			e := b.Event(i)
			a.add(&e)
		}
		return
	}
	a.addColumns(b.IDs, b.Values)
}

// AddBlock folds a block into its windows: the same result, bit for bit, as
// AddBatch of the block's materialised events — same per-key accumulation
// order, same windows opened, late data treated alike — without materialising
// them. The block is cut where it crosses a window boundary, which is
// arithmetic on From and Step, and each run goes to its window's
// KeyedAgg.AddBlock.
func (w *WindowAgg) AddBlock(b *Block) {
	if b.Step < 0 {
		// A descending block is folded event by event: the cut below counts
		// forward from each run's first event.
		w.events = b.AppendEvents(w.events[:0])
		w.AddBatch(w.events)
		return
	}
	n := len(b.IDs)
	for i := 0; i < n; {
		t := b.From + simtime.Time(i)*b.Step
		agg := w.aggFor(t)
		// Events i … i+m-1 are the ones before the end of the window aggFor
		// has just made current.
		m := n - i
		if b.Step > 0 {
			left := w.lastStart + simtime.Time(w.Width) - t
			m = min(m, int((left+b.Step-1)/b.Step))
		}
		run := Block{Table: b.Table, IDs: b.IDs[i : i+m], Values: b.Values[i : i+m], From: t, Step: b.Step, Site: b.Site}
		agg.AddBlock(&run)
		i += m
	}
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
