package stream

// KeyTable maps event keys to small dense integer IDs shared between
// generators and operators. A generator builds its table from its key list
// once, at construction; every event it emits then carries the integer KeyID
// next to the string Key, and keyed aggregates index a slice of cells instead
// of hashing strings — the allocation-free fast path of the streaming data
// plane.
//
// IDs start at 1; 0 is reserved as "no key ID" so the Event zero value stays
// valid. A table's keys are fixed when it is built. The string → ID index is
// built by the first Lookup, so a table only ever addressed by ID hashes no
// key. Ownership: a Lookup on a table not yet indexed writes the index, so
// Lookups come from the one goroutine that owns the table; Key and Len read
// only the key lists, which nothing writes, so any goroutine may call them.
type KeyTable struct {
	keys []string // the first run: keys[id-1] is the key with ID id
	// more are the runs after the first, in ID order: a union's slices of
	// other tables' lists, nil for a table of one list.
	more []keyRun
	n    int            // keys in every run
	ids  map[string]int // key → ID; nil until the first Lookup
}

// keyRun is a slice of an existing key list and the ID of its first key.
type keyRun struct {
	keys  []string
	first int
}

// NewKeyTableOf returns a table holding the keys of runs in order, which must
// be distinct: the runs' keys get IDs 1, 2, … as if the lists were one. The
// table reads the lists as they are, copying and hashing no key, and never
// writes them, so any number of tables can be built over one list. A table of
// one list reads its key by index; a table of several finds the run first.
func NewKeyTableOf(runs ...[]string) *KeyTable {
	t := &KeyTable{}
	if len(runs) > 1 {
		t.more = make([]keyRun, 0, len(runs)-1)
	}
	for _, keys := range runs {
		switch {
		case t.n == 0: // until a run holds a key, it is the first
			t.keys = keys
		case len(keys) > 0:
			t.more = append(t.more, keyRun{keys: keys, first: t.n + 1})
		}
		t.n += len(keys)
	}
	return t
}

// Lookup returns the ID for a key of the table.
func (t *KeyTable) Lookup(key string) (int, bool) {
	if t.ids == nil {
		t.ids = make(map[string]int, t.n)
		for i, k := range t.keys {
			t.ids[k] = i + 1
		}
		for _, r := range t.more {
			for i, k := range r.keys {
				t.ids[k] = r.first + i
			}
		}
	}
	id, ok := t.ids[key]
	return id, ok
}

// Key returns the string for an ID, or "" when the ID is out of range. An ID
// of the first run is one index, inlined into the loops that name every
// cell's key (SerializedBytes, snapshots, checkpoints).
func (t *KeyTable) Key(id int) string {
	if uint(id-1) < uint(len(t.keys)) {
		return t.keys[id-1]
	}
	return t.runKey(id)
}

// runKey is Key for an ID outside the first run: the last run that starts at
// or before id holds it.
func (t *KeyTable) runKey(id int) string {
	if id <= 0 || id > t.n {
		return ""
	}
	lo, hi := 0, len(t.more) // the run is below hi and at or past lo-1
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t.more[mid].first <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r := t.more[lo-1]
	return r.keys[id-r.first]
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return t.n }

// cap returns the cell-slice length needed to index every ID.
func (t *KeyTable) cap() int { return t.n + 1 }
