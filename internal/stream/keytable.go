package stream

// KeyTable interns event keys into small dense integer IDs shared between
// generators and operators. A generator builds its table from its key list
// once, at construction; every event it emits then carries the integer KeyID
// next to the string Key, and keyed aggregates index a slice of cells instead
// of hashing strings — the allocation-free fast path of the streaming data
// plane.
//
// IDs start at 1; 0 is reserved as "no interned key" so the Event zero value
// stays valid. The string → ID index is built by the first Lookup or Intern,
// so a table only ever addressed by ID hashes no key. Ownership: a KeyTable is
// not safe for concurrent mutation, and a Lookup on a table not yet indexed
// writes the index, so Intern and Lookup come from the one goroutine that owns
// the table. Key and Len read only the key list, which only Intern writes.
type KeyTable struct {
	keys []string       // keys[id-1] is the key with ID id
	ids  map[string]int // key → ID; nil until the first Lookup or Intern
}

// NewKeyTable returns an empty table.
func NewKeyTable() *KeyTable { return &KeyTable{} }

// NewKeyTableOf returns a table holding keys, which must be distinct: the key
// at keys[i] gets ID i+1, as interning them in order would assign. The table
// takes the slice as it is, hashing nothing, and owns it from then on.
func NewKeyTableOf(keys []string) *KeyTable { return &KeyTable{keys: keys} }

// index returns the string → ID index, building it on first use.
func (t *KeyTable) index() map[string]int {
	if t.ids == nil {
		t.ids = make(map[string]int, len(t.keys))
		for i, k := range t.keys {
			t.ids[k] = i + 1
		}
	}
	return t.ids
}

// Intern returns the ID for key, assigning the next free ID on first use.
func (t *KeyTable) Intern(key string) int {
	ids := t.index()
	if id, ok := ids[key]; ok {
		return id
	}
	t.keys = append(t.keys, key)
	ids[key] = len(t.keys)
	return len(t.keys)
}

// Lookup returns the ID for an already-interned key.
func (t *KeyTable) Lookup(key string) (int, bool) {
	id, ok := t.index()[key]
	return id, ok
}

// Key returns the string for an ID, or "" when the ID is out of range.
func (t *KeyTable) Key(id int) string {
	if id <= 0 || id > len(t.keys) {
		return ""
	}
	return t.keys[id-1]
}

// Len returns the number of interned keys.
func (t *KeyTable) Len() int { return len(t.keys) }

// cap returns the cell-slice length needed to index every current ID.
func (t *KeyTable) cap() int { return len(t.keys) + 1 }
