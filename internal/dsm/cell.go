package dsm

import (
	"math"
	"sync"
	"sync/atomic"

	"mixedmem/internal/loctab"
)

// This file is the value store: cells, the node's table that holds them, the
// shards that hold what reads and awaits wait on, and the atomic vectors the
// read paths consult without a lock. Its locks are cellMu, a leaf, and
// shard.mu.

// Sharding constants: the low bits of a location's hash (loctab.Hash) pick
// one of a power-of-two number of shards, so reads, awaits and invalidations
// of distinct locations land on distinct shard state. The cells themselves
// live in one table per node, keyed by the whole hash. The PRAM last-writer
// is packed into one atomic word as from<<seqBits | seq, which caps
// per-sender sequence numbers at 2^48 — unreachable in practice.
const (
	shardCount = 32
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
	// ord is one more than the ordinal this node gave the location when it
	// first wrote it — its rank among the locations the node has written —
	// and zero while the node has not (issue). Guarded by clockMu.
	ord uint32
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

// shard is one partition of the location space. Its mutex guards the
// invalidation table and await registration; invalidLen mirrors len(invalid)
// so the read fast path can skip the table without locking.
type shard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32

	invalid    map[string]invalidation
	invalidLen atomic.Int32

	pramReads   atomic.Uint64
	causalReads atomic.Uint64
	slowReads   atomic.Uint64
}

// shard returns the shard a location hash (loctab.Hash) selects.
func (n *Node) shard(h uint32) *shard { return &n.shards[h&shardMask] }

// lookup returns the location's cell, or nil if it was never written. h is
// loctab.Hash(loc). It takes no lock: the table is insert-only, and a cell
// lives inside its table entry at an address that never changes.
func (n *Node) lookup(h uint32, loc string) *cell { return n.cells.Get(h, loc) }

// locFor returns the location's table entry — its name, hash and cell —
// inserting one with an empty cell if needed: once per location, under cellMu.
// cellMu is a leaf: locFor is safe under any lock, and nothing is taken under
// it.
func (n *Node) locFor(h uint32, loc string) *loctab.Entry[cell] {
	if e := n.cells.Find(h, loc); e != nil {
		return e
	}
	n.cellMu.Lock()
	e, _ := n.cells.InsertEntry(h, loc, cell{})
	n.cellMu.Unlock()
	return e
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
