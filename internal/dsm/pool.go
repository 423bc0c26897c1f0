package dsm

import (
	"math"
	"slices"
	"sync/atomic"
)

// This file is the pools the runtime's updates and batches travel in: every
// update and batch a node sends or a connection decodes is an element of a
// pool, handed out with one reference per holder and returned by the holder
// that releases the last one.

// pool is one site's supply of elements of one kind: the issue path's updates
// (under clockMu), the outbox's updates and batches (under outboxMu), and each
// inbound connection's decoder's (its goroutine's). The owner alone takes
// elements, first from free, then from the return stack, and carves a slab of
// slabSize on a miss. A release may come from any goroutine — a receiver's
// apply path, a wire transport's sender — and pushes the element onto back, a
// lock-free stack the owner empties in one swap, so neither side takes a lock
// or allocates. Only the owner ever pops, and it takes the whole stack, so a
// push cannot lose an element to a concurrent pop. Elements stay with the
// pool: it holds as many as its site ever had in flight at once.
type pool[E any, P pooled[E]] struct {
	free *E
	slab []E
	back atomic.Pointer[E]
}

// pooled is what a pool's element type provides: the link the pool keeps it by.
type pooled[E any] interface {
	*E
	poolLink() *poolLink[E]
}

// poolLink is an element's bookkeeping: its holders, and where it goes back.
type poolLink[E any] struct {
	refs atomic.Int32
	// home is the return stack of the pool the element belongs to; next links
	// the element on that pool's free list or return stack while no one holds
	// it.
	home *atomic.Pointer[E]
	next *E
}

// take returns an element with holders references, for the pool's owner to
// fill before it hands the element on; once handed on it is never written
// until it comes back.
func (p *pool[E, P]) take(holders int32) P {
	e := p.free
	if e == nil {
		e = p.back.Swap(nil)
	}
	var l *poolLink[E]
	if e == nil {
		e = carve(&p.slab)
		l = P(e).poolLink()
		l.home = &p.back
	} else {
		l = P(e).poolLink()
		p.free, l.next = l.next, nil
	}
	l.refs.Store(holders)
	return P(e)
}

// drop drops one holder's reference and reports whether it was the last.
func (l *poolLink[E]) drop() bool { return l.refs.Add(-1) == 0 }

// push returns e, whose last holder has cleared it, to its pool's return
// stack.
func (l *poolLink[E]) push(e *E) {
	for {
		head := l.home.Load()
		l.next = head
		if l.home.CompareAndSwap(head, e) {
			return
		}
	}
}

// What a released element reads as under the race detector (poisonReleased):
// a value no test writes, a sequence number past every sender's and an
// ordinal past every table's.
const (
	poisonSeq     = math.MaxUint64
	poisonValue   = -0x5eed_dead_5eed_dead
	poisonOrdinal = math.MaxUint32
)

// tsInline is the widest timestamp a sent or decoded update carries inside its
// own element; a wider system's stamps come from a timestamp slab.
const tsInline = 8

// stampedUpdate is the element an unbatched sent update, a single-update
// flush or a decoded update travels in, with room for its obVector timestamp:
// an update and its stamp cost one element. Its pool hands it out with one
// reference per holder — a destination message on the simulated fabric, a
// message a wire transport has yet to encode, the update a connection decoded
// — and the holder that releases the last one (release) returns it.
type stampedUpdate struct {
	Update
	words [tsInline]uint64
	link  poolLink[stampedUpdate]
}

func (e *stampedUpdate) poolLink() *poolLink[stampedUpdate] { return &e.link }

// updatePool supplies stampedUpdate elements.
type updatePool = pool[stampedUpdate, *stampedUpdate]

// takeUpdate returns an element of p holding a copy of u with holders
// references, for the owner to finish filling (its timestamp).
func takeUpdate(p *updatePool, u *Update, holders int32) *stampedUpdate {
	e := p.take(holders)
	e.Update = *u
	e.elem = e
	return e
}

// element returns the pooled element u is the payload of, or nil for an update
// that is its own allocation — a test's or the stateless decoder's — or a copy.
func (u *Update) element() *stampedUpdate {
	if e := u.elem; e != nil && &e.Update == u {
		return e
	}
	return nil
}

// release drops one holder's reference to u, a no-op for an update that holds
// none (element). The last one clears the element, so a free element pins no
// timestamp, matrix or name, and pushes it onto its pool's return stack.
func (u *Update) release() {
	e := u.element()
	if e == nil || !e.link.drop() {
		return
	}
	e.Update = Update{}
	if poisonReleased {
		e.Seq, e.Value, e.Ordinal = poisonSeq, poisonValue, poisonOrdinal
	}
	e.link.push(e)
}

// stampedBatch is the element a flushed or decoded batch travels in: its
// header, its entries and their timestamps' words, which keep their capacity
// from one use to the next, so a batch costs one element, not a header, an
// entry slice and a stamp slab. One holder has it at a time — the destination
// message on the simulated fabric, the message a wire transport has yet to
// encode, the batch a connection decoded — and the release of that one
// returns it.
type stampedBatch struct {
	UpdateBatch
	words []uint64
	link  poolLink[stampedBatch]
}

func (e *stampedBatch) poolLink() *poolLink[stampedBatch] { return &e.link }

// batchPool supplies stampedBatch elements, and the slabs their entries and
// words are carved from when an element first needs room for them or needs
// more: elements are as many as the site has batches in flight, and each would
// otherwise cost an allocation of each kind when it first fills.
type batchPool struct {
	pool[stampedBatch, *stampedBatch]
	entries []Update // the unused rest of the entry slab
	words   []uint64 // the unused rest of the word slab
}

// batchRoom is the granularity an element's entry and word capacities are
// carved in, so that an element whose batches vary in size carves anew
// rarely. A slab holds entrySlab entries or wordSlab words: room for a few
// dozen batches of a dozen stamped entries in a small system, about what a
// node of a lock-bound program has in flight.
const (
	batchRoom = 16
	entrySlab = 32 * batchRoom
	wordSlab  = 128 * batchRoom
)

// takeBatch returns an element of p with one reference, its entries and words
// empty, with room for entries entries and words words.
func takeBatch(p *batchPool, entries, words int) *stampedBatch {
	e := p.take(1)
	e.elem = e
	if cap(e.Updates) < entries {
		e.Updates = carveRoom(&p.entries, entries, entrySlab)
	}
	if cap(e.words) < words {
		e.words = carveRoom(&p.words, words, wordSlab)
	}
	return e
}

// carveRoom returns an empty slice with room for k elements, rounded up to
// batchRoom, carved from *slab, which it refills with size elements once too
// short: more than that is an allocation of its own.
func carveRoom[T any](slab *[]T, k, size int) []T {
	k = (k + batchRoom - 1) / batchRoom * batchRoom
	if k > size {
		return make([]T, 0, k)
	}
	if len(*slab) < k {
		*slab = make([]T, size)
	}
	s := (*slab)[:0:k]
	*slab = (*slab)[k:]
	return s
}

// element returns the pooled element b is the payload of, or nil for a batch
// that is its own allocation or a copy.
func (b *UpdateBatch) element() *stampedBatch {
	if e := b.elem; e != nil && &e.UpdateBatch == b {
		return e
	}
	return nil
}

// release drops the holder's reference to b, a no-op for a batch that holds
// none (element). The last one clears the header and the entries, so a free
// element pins no timestamp, matrix or name, keeps the capacity of both
// slices, and goes back to its pool.
func (b *UpdateBatch) release() {
	e := b.element()
	if e == nil || !e.link.drop() {
		return
	}
	entries := e.Updates
	clear(entries)
	if poisonReleased {
		for i := range entries {
			entries[i].Seq, entries[i].Value, entries[i].Ordinal = poisonSeq, poisonValue, poisonOrdinal
		}
		for i := range e.words {
			e.words[i] = poisonSeq
		}
	}
	e.UpdateBatch = UpdateBatch{Updates: entries[:0]}
	if poisonReleased {
		e.FirstSeq = poisonSeq
	}
	e.link.push(e)
}

// fillStamps gives each stamped entry of e its timestamp's own words in e,
// copying them from wherever the entry's TS points now: the outbox's ring, or
// a connection's scratch words.
func fillStamps(e *stampedBatch) {
	need := stampWords(e.Updates)
	e.words = slices.Grow(e.words[:0], need)[:need] // room taken by takeBatch
	words := e.words
	for i := range e.Updates {
		u := &e.Updates[i]
		if k := len(u.TS); k > 0 {
			copy(words, u.TS)
			u.TS, words = words[:k:k], words[k:]
		}
	}
}

// stampWords is how many timestamp words the entries carry.
func stampWords(entries []Update) int {
	k := 0
	for i := range entries {
		k += len(entries[i].TS)
	}
	return k
}
