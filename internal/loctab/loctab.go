// Package loctab is the location table shared by the memory runtime's value
// store (internal/dsm, one table per node) and the tracer's name interning
// (internal/obs): an insert-only, open-addressed hash table keyed by location
// name. NameArena, beside it, is where the names a stream produces — a
// connection's decoded definitions, a strand's flag names — are carved from.
//
// Both owners have the same access pattern — every read, write, apply, and
// trace record looks a name up; a name is inserted once and never removed —
// and the same requirement: lookups run on hot paths that hold no lock and
// must not allocate. The table meets it with three invariants:
//
//   - Publication. An entry is an element of a chunk — an entry array
//     allocated at growth, one element per insert that growth admits — whose
//     key, hash, and value are written before its pointer is stored
//     (atomically) into a slot. An element is used for one entry and a slot
//     goes from nil to one entry exactly once; neither changes again, so a
//     reader that loads a non-nil slot sees a fully built entry, and a probe
//     sequence that once found a key finds it forever.
//   - Growth. When the load factor is reached the inserter builds a slot
//     array of twice the size, re-places the same entry pointers, and
//     publishes the new array with one atomic store, then allocates the
//     chunk the next inserts fill. The old array is never written again; a
//     reader still probing it finds every entry it held at the swap and
//     misses only keys inserted later, which is a lookup that linearizes
//     before the insert. A table therefore costs three allocations per
//     doubling (the slot array, its published header, the chunk) and none
//     per key.
//   - Stability. Values live inside entries, entries are never copied — an
//     old chunk stays where it is, referenced from the slots — so a *V
//     returned by Get or Insert stays valid (and identical) across any number
//     of growths.
//
// Insert is not synchronized: the owner calls it under the mutex that
// serializes its inserts (a dsm node's table mutex, the tracer's intern
// mutex). Get and Range need no lock.
package loctab

import "sync/atomic"

const (
	// initialSlots is the slot count allocated by the first insert (a power
	// of two; the zero Table holds no array at all, so an empty table costs
	// nothing).
	initialSlots = 8
	// The table doubles when an insert would take it past loadNum/loadDen
	// full. Linear probing at half load keeps expected probe lengths under
	// two even with the mediocre low-bit mixing of a byte-wise hash.
	loadNum, loadDen = 1, 2
)

// Hash is 32-bit FNV-1a over the name. Owners hash a name once per operation
// and derive everything from it: both hand the whole word to their table, and
// dsm also takes its low bits for the shard that reads and awaits of the name
// use.
func Hash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// HashBytes is Hash for a name still held as bytes (a decoder looking at a
// wire buffer): the same value Hash gives the string.
func HashBytes(name []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range name {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// Entry is one key of a table with its hash and value. It lives at an address
// that never changes, so a holder of an *Entry keeps the key's name, hash and
// value without looking the key up again.
type Entry[V any] struct {
	key  string
	hash uint32
	val  V
}

// Key returns the entry's key.
func (e *Entry[V]) Key() string { return e.key }

// Hash returns the hash the entry was inserted under.
func (e *Entry[V]) Hash() uint32 { return e.hash }

// Value returns the entry's value, the pointer Get and Insert return for it.
func (e *Entry[V]) Value() *V { return &e.val }

// Table maps location names to values of type V. The zero value is an empty
// table ready for use.
type Table[V any] struct {
	slots atomic.Pointer[[]atomic.Pointer[Entry[V]]]
	// count is the number of entries and free the unused rest of the current
	// chunk; only Insert (under the owner's mutex) touches them.
	count int
	free  []Entry[V]
}

// Get returns the value stored under key, or nil if the key was never
// inserted. hash must be the value every Insert of this key was given. Safe
// concurrently with Insert; takes no lock and allocates nothing.
func (t *Table[V]) Get(hash uint32, key string) *V {
	if e := t.Find(hash, key); e != nil {
		return &e.val
	}
	return nil
}

// Find is Get returning the whole entry.
func (t *Table[V]) Find(hash uint32, key string) *Entry[V] {
	p := t.slots.Load()
	if p == nil {
		return nil
	}
	return probe(*p, hash, key)
}

func probe[V any](slots []atomic.Pointer[Entry[V]], hash uint32, key string) *Entry[V] {
	mask := uint32(len(slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e == nil || e.hash == hash && e.key == key {
			return e
		}
	}
}

// Insert returns the value stored under key, adding init first if the key is
// new; inserted reports which. The caller must hold the owner's mutex:
// inserts are serialized by it, lookups are not.
func (t *Table[V]) Insert(hash uint32, key string, init V) (v *V, inserted bool) {
	e, inserted := t.InsertEntry(hash, key, init)
	return &e.val, inserted
}

// InsertEntry is Insert returning the whole entry.
func (t *Table[V]) InsertEntry(hash uint32, key string, init V) (e *Entry[V], inserted bool) {
	var slots []atomic.Pointer[Entry[V]]
	if p := t.slots.Load(); p != nil {
		slots = *p
		if e := probe(slots, hash, key); e != nil {
			return e, false
		}
	}
	if (t.count+1)*loadDen > len(slots)*loadNum {
		slots = t.grow(slots)
	}
	e = &t.free[0]
	t.free = t.free[1:]
	*e = Entry[V]{key: key, hash: hash, val: init}
	place(slots, e)
	t.count++
	return e, true
}

// grow publishes a slot array of twice the size holding the same entries, and
// allocates the chunk for the inserts the new array admits before it is full
// in turn — which is when the previous chunk runs out, so free is empty here.
func (t *Table[V]) grow(old []atomic.Pointer[Entry[V]]) []atomic.Pointer[Entry[V]] {
	size := initialSlots
	if len(old) > 0 {
		size = 2 * len(old)
	}
	next := make([]atomic.Pointer[Entry[V]], size)
	for i := range old {
		if e := old[i].Load(); e != nil {
			place(next, e)
		}
	}
	t.slots.Store(&next)
	t.free = make([]Entry[V], size*loadNum/loadDen-t.count)
	return next
}

// place stores e in the first free slot of its probe sequence. The load
// factor guarantees one exists.
func place[V any](slots []atomic.Pointer[Entry[V]], e *Entry[V]) {
	mask := uint32(len(slots) - 1)
	i := e.hash & mask
	for slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	slots[i].Store(e)
}

// Doublings is the number of times a table grows while keys entries are
// inserted into it — three allocations each, all that the inserts cost.
func Doublings(keys int) int {
	d := 0
	for size := 0; keys*loadDen > size*loadNum; d++ {
		size = max(initialSlots, 2*size)
	}
	return d
}

// Range calls fn for every entry present when Range loaded the slot array, in
// slot order. Safe concurrently with Insert.
func (t *Table[V]) Range(fn func(key string, v *V)) {
	p := t.slots.Load()
	if p == nil {
		return
	}
	for i := range *p {
		if e := (*p)[i].Load(); e != nil {
			fn(e.key, &e.val)
		}
	}
}
