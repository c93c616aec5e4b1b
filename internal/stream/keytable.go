package stream

import "fmt"

// KeyList is a list of keys held as one text and the offsets that cut it: key
// i is text[ends[i]:ends[i+1]], a substring of the text, so reading a key
// allocates nothing, and the offsets hold no pointer for the collector to
// scan. A list of n keys has n+1 offsets (the zero KeyList, none). Offsets are
// uint32, so a list's text is under 4 GiB. Nothing writes a list once built, so slices of it (Slice) and tables over
// it share its text and offsets.
type KeyList struct {
	text string
	ends []uint32
}

// NewKeyList returns the list whose key i is text[ends[i]:ends[i+1]], taking
// both as they are: the caller hands them over and writes neither again. The
// offsets must not decrease or pass the end of the text; anything else is a
// programming error and panics.
func NewKeyList(text string, ends []uint32) KeyList {
	for i, e := range ends {
		if int(e) > len(text) || (i > 0 && e < ends[i-1]) {
			panic(fmt.Sprintf("stream: key offset %d (%d) is out of order or past a text of %d bytes", i, e, len(text)))
		}
	}
	return KeyList{text: text, ends: ends}
}

// Len returns the number of keys.
func (l KeyList) Len() int { return max(len(l.ends)-1, 0) }

// key returns key i.
func (l KeyList) key(i int) string { return l.text[l.ends[i]:l.ends[i+1]] }

// Slice returns keys lo … hi-1 as a list over the same text and offsets.
// The zero KeyList has no offsets to slice.
func (l KeyList) Slice(lo, hi int) KeyList {
	return KeyList{text: l.text, ends: l.ends[lo : hi+1]}
}

// KeyTable maps event keys to small dense integer IDs shared between
// generators and operators. A generator builds its table from its key list
// once, at construction; every block it draws then carries IDs in place of
// key strings, and keyed aggregates index a slice of cells instead of hashing
// strings — the allocation-free fast path of the streaming data plane.
//
// IDs start at 1; 0 is no key's ID, so a dense table's cell 0 stays unused. A table's keys are fixed when it is built. The string → ID index is
// built by the first Lookup, so a table only ever addressed by ID hashes no
// key. Ownership: a Lookup on a table not yet indexed writes the index, so
// Lookups come from the one goroutine that owns the table; Key and Len read
// only the key lists, which nothing writes, so any goroutine may call them.
type KeyTable struct {
	head KeyList // the first run: head.key(id-1) is the key with ID id
	// more are the runs after the first, in ID order: a union's slices of
	// other tables' lists, nil for a table of one list.
	more []keyRun
	n    int            // keys in every run
	ids  map[string]int // key → ID; nil until the first Lookup
}

// keyRun is a slice of an existing key list and the ID of its first key.
type keyRun struct {
	keys  KeyList
	first int
}

// NewKeyTable returns a table holding the keys of runs in order, which must
// be distinct: the runs' keys get IDs 1, 2, … as if the lists were one. The
// table reads the lists as they are, copying and hashing no key, and never
// writes them, so any number of tables can be built over one list. A table of
// one list reads its key by index; a table of several finds the run first.
func NewKeyTable(runs ...KeyList) *KeyTable {
	t := &KeyTable{}
	if len(runs) > 1 {
		t.more = make([]keyRun, 0, len(runs)-1)
	}
	for _, keys := range runs {
		switch {
		case t.n == 0: // until a run holds a key, it is the first
			t.head = keys
		case keys.Len() > 0:
			t.more = append(t.more, keyRun{keys: keys, first: t.n + 1})
		}
		t.n += keys.Len()
	}
	return t
}

// runs returns the number of runs that hold keys: none for a nil table.
func (t *KeyTable) runs() int {
	if t == nil || t.n == 0 {
		return 0
	}
	return 1 + len(t.more)
}

// run returns run r (0 ≤ r < runs()) and the ID of its first key.
func (t *KeyTable) run(r int) (KeyList, int) {
	if r == 0 {
		return t.head, 1
	}
	return t.more[r-1].keys, t.more[r-1].first
}

// Lookup returns the ID for a key of the table.
func (t *KeyTable) Lookup(key string) (int, bool) {
	if t.ids == nil {
		t.ids = make(map[string]int, t.n)
		for r := range t.runs() {
			keys, first := t.run(r)
			for i := range keys.Len() {
				t.ids[keys.key(i)] = first + i
			}
		}
	}
	id, ok := t.ids[key]
	return id, ok
}

// Key returns the string for an ID, or "" when the ID is out of range. An ID
// of the first run is read from two offsets; one of a later run finds its
// run first (runKey), so walks over a whole union go run by run instead.
func (t *KeyTable) Key(id int) string {
	if e := t.head.ends; id > 0 && id < len(e) {
		return t.head.text[e[id-1]:e[id]]
	}
	return t.runKey(id)
}

// runKey is Key for an ID outside the first run: the last run that starts
// at or before id holds it.
func (t *KeyTable) runKey(id int) string {
	if id <= 0 || id > t.n {
		return ""
	}
	lo, hi := 0, len(t.more) // the run is more[lo-1] or, for lo 0, head
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t.more[mid].first <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	keys, first := t.run(lo)
	return keys.key(id - first)
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return t.n }

// cap returns the cell-slice length needed to index every ID.
func (t *KeyTable) cap() int { return t.n + 1 }
