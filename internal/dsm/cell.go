package dsm

import (
	"math"
	"sync"
	"sync/atomic"

	"mixedmem/internal/loctab"
)

// This file is the value store: cells, the shards that hold them, and the
// atomic vectors the read paths consult without a lock. Its one lock is
// shard.mu.

// Sharding constants: the low shardBits of a location's hash (loctab.Hash)
// pick one of a power-of-two number of shards, so distinct-location
// operations land on distinct shard state; the remaining bits pick the slot
// in the shard's table. The PRAM last-writer is packed into one atomic word
// as from<<seqBits | seq, which caps per-sender sequence numbers at 2^48 —
// unreachable in practice.
const (
	shardBits  = 5
	shardCount = 1 << shardBits
	shardMask  = shardCount - 1
	seqBits    = 48
	seqMask    = (1 << seqBits) - 1
)

// cell holds one location's state in both views. Values are atomics so the
// read paths never lock: appliers mutate them under the clock lock (or, for
// commutative adds, with atomic add/CAS), readers load them directly.
type cell struct {
	pram   atomic.Int64
	causal atomic.Int64
	// last packs the update most recently applied to the PRAM view
	// (from<<seqBits | seq; zero means never anchored). PRAM reads raise
	// the observation fence with it. Appliers store last before the value
	// and readers load the value before last, so the fence entry a read
	// raises always covers the value it observed.
	last atomic.Uint64
}

func packLast(from int, seq uint64) uint64 {
	return uint64(from)<<seqBits | seq&seqMask
}

// applyCell applies one update operation to a view's atomic value. OpSet
// stores; the commutative ops use atomic add / CAS so concurrent appliers
// (a local writer and the receive loop) never lose an increment.
func applyCell(v *atomic.Int64, op UpdateOp, value int64) {
	switch op {
	case OpAdd:
		v.Add(value)
	case OpAddFloat:
		for {
			old := v.Load()
			sum := math.Float64frombits(uint64(old)) +
				math.Float64frombits(uint64(value))
			if v.CompareAndSwap(old, int64(math.Float64bits(sum))) {
				return
			}
		}
	default:
		v.Store(value)
	}
}

// shard is one partition of the location space. The value table is
// insert-only: lookups probe it with no lock; an insert — once per new
// location — takes the location's entry from the table's current chunk (the
// cell lives inside it, at an address that never changes) under the shard
// mutex. The mutex also guards
// the invalidation table and await registration; invalidLen mirrors
// len(invalid) so the read fast path can skip the table without locking.
type shard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32
	vals    loctab.Table[cell]

	invalid    map[string]invalidation
	invalidLen atomic.Int32

	pramReads   atomic.Uint64
	causalReads atomic.Uint64
	slowReads   atomic.Uint64
}

// shard returns the shard a location hash (loctab.Hash) selects.
func (n *Node) shard(h uint32) *shard { return &n.shards[h&shardMask] }

// lookup returns the location's cell, or nil if it was never written. h is
// the location's hash, the one that selected this shard.
func (sh *shard) lookup(h uint32, loc string) *cell {
	return sh.vals.Get(h>>shardBits, loc)
}

// cellFor returns the location's cell, inserting an empty one if needed. Safe
// under any lock level at or above shard.mu in the documented order.
func (sh *shard) cellFor(h uint32, loc string) *cell {
	if c := sh.lookup(h, loc); c != nil {
		return c
	}
	sh.mu.Lock()
	c, _ := sh.vals.Insert(h>>shardBits, loc, cell{})
	sh.mu.Unlock()
	return c
}

// wake broadcasts the shard condition if any await is registered. Appliers
// call it after storing a value; the registration protocol in awaitValue
// (waiters incremented before the value check, broadcast after the store)
// makes the missed-wakeup window empty.
func (sh *shard) wake() {
	if sh.waiters.Load() == 0 {
		return
	}
	sh.mu.Lock()
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// avc is a vector clock stored as atomics: mutated only under the clock
// lock, readable without it. raise is the exception — the observation fence
// is raised by reader threads with a CAS-max and never needs the lock.
type avc []atomic.Uint64

func (v avc) get(j int) uint64    { return v[j].Load() }
func (v avc) set(j int, x uint64) { v[j].Store(x) }
func (v avc) raise(j int, x uint64) {
	for {
		cur := v[j].Load()
		if cur >= x || v[j].CompareAndSwap(cur, x) {
			return
		}
	}
}
