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
// only the key list, which nothing writes, so any goroutine may call them.
type KeyTable struct {
	keys []string       // keys[id-1] is the key with ID id
	ids  map[string]int // key → ID; nil until the first Lookup
}

// NewKeyTableOf returns a table holding keys, which must be distinct: the key
// at keys[i] gets ID i+1. The table reads the list as it is, hashing nothing,
// and never writes it, so any number of tables can be built over one list.
func NewKeyTableOf(keys []string) *KeyTable { return &KeyTable{keys: keys} }

// Lookup returns the ID for a key of the table.
func (t *KeyTable) Lookup(key string) (int, bool) {
	if t.ids == nil {
		t.ids = make(map[string]int, len(t.keys))
		for i, k := range t.keys {
			t.ids[k] = i + 1
		}
	}
	id, ok := t.ids[key]
	return id, ok
}

// Key returns the string for an ID, or "" when the ID is out of range.
func (t *KeyTable) Key(id int) string {
	if id <= 0 || id > len(t.keys) {
		return ""
	}
	return t.keys[id-1]
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return len(t.keys) }

// cap returns the cell-slice length needed to index every ID.
func (t *KeyTable) cap() int { return len(t.keys) + 1 }
