package stream

// KeyTable interns event keys into small dense integer IDs shared between
// generators and operators. A generator with known key cardinality interns
// its string table once at construction; every event it emits then carries
// the integer KeyID next to the string Key, and keyed aggregates index a
// slice of cells instead of hashing strings — the allocation-free fast path
// of the streaming data plane.
//
// IDs start at 1; 0 is reserved as "no interned key" so the Event zero
// value stays valid. A KeyTable is not safe for concurrent mutation; share
// one per generator/engine, not across goroutines that intern.
type KeyTable struct {
	ids  map[string]int
	keys []string // keys[id] = key; keys[0] is the "" sentinel
}

// NewKeyTable returns an empty table.
func NewKeyTable() *KeyTable { return NewKeyTableSized(0) }

// NewKeyTableSized returns an empty table with room for n keys, so a caller
// that knows how many it is about to intern pays for no rehash and no regrowth
// on the way there. The table still grows past n.
func NewKeyTableSized(n int) *KeyTable {
	return &KeyTable{ids: make(map[string]int, n), keys: make([]string, 1, n+1)}
}

// Intern returns the ID for key, assigning the next free ID on first use.
func (t *KeyTable) Intern(key string) int {
	if id, ok := t.ids[key]; ok {
		return id
	}
	id := len(t.keys)
	t.keys = append(t.keys, key)
	t.ids[key] = id
	return id
}

// Lookup returns the ID for an already-interned key.
func (t *KeyTable) Lookup(key string) (int, bool) {
	id, ok := t.ids[key]
	return id, ok
}

// Key returns the string for an ID, or "" when the ID is out of range.
func (t *KeyTable) Key(id int) string {
	if id <= 0 || id >= len(t.keys) {
		return ""
	}
	return t.keys[id]
}

// Len returns the number of interned keys.
func (t *KeyTable) Len() int { return len(t.keys) - 1 }

// cap returns the cell-slice length needed to index every current ID.
func (t *KeyTable) cap() int { return len(t.keys) }
