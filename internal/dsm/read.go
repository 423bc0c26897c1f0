package dsm

import (
	"time"

	"mixedmem/internal/loctab"
	"mixedmem/internal/obs"
)

// This file is the read side: the four reads, the observation fence, and
// awaits. The fast paths take no lock; the waits block on the clock condition
// (fence, invalidation) or the location's shard condition (await). Every
// thread of a process reads through the same node.

// ReadSlow returns loc's most recent locally applied value without raising
// the observation fence: the slow-memory read (Hutto & Ahamad's slow memory,
// the bottom of the label lattice). It guarantees only that one writer's
// writes to this location are observed in order — the transport's FIFO
// channels and receive-order application give exactly that — and imposes no
// obligation on any later read of any other location.
func (n *Node) ReadSlow(loc string) int64 { return n.readLocal(loc, false) }

// ReadPRAM returns loc's value in the PRAM view: the most recent locally
// applied value (Definition 3 at the implementation level). It blocks only
// if the location is invalidated by demand-driven propagation.
func (n *Node) ReadPRAM(loc string) int64 { return n.readLocal(loc, true) }

// ReadCausal returns loc's value in the causal view: the most recent value
// all of whose causal predecessors have been applied locally (Definition 2
// at the implementation level). It blocks if the location is invalidated by
// demand-driven propagation, or until the causal view covers the process's
// observation fence — everything earlier PRAM reads and PRAM awaits of this
// process observed, whose reads-from edges Definition 2 counts as causal
// context. A PRAMOnly node keeps no causal view: it serves the read as the
// PRAM read it degrades to — sound only for PRAM-consistent programs.
//
// Lock-free when the fence is already covered: causalApplied only advances
// after a group's values are stored, so a fence check that passes on atomic
// loads guarantees the covered values are visible.
func (n *Node) ReadCausal(loc string) int64 {
	if n.pramOnly {
		return n.readLocal(loc, true)
	}
	h := loctab.Hash(loc)
	sh := n.shard(h)
	if sh.invalidLen.Load() != 0 {
		n.waitValid(sh, loc, true)
	}
	if !n.fenceCovered() {
		n.waitFence(loc)
	}
	var v int64
	if c := n.lookup(h, loc); c != nil {
		v = c.causal.Load()
	}
	sh.causalReads.Add(1)
	return v
}

// AwaitPRAM blocks until loc holds value in the PRAM view — the busy-wait
// loop of PRAM reads the paper describes (Section 6), realized with a
// condition variable instead of spinning. Reads that follow it see the
// matched write and its sender's FIFO prefix, but not transitive
// dependencies through third processes; programs that read with causal
// labels after an await should use AwaitCausal.
func (n *Node) AwaitPRAM(loc string, value int64) { n.awaitValue(loc, value, false) }

// AwaitCausal blocks until loc holds value in the causal view — a busy-wait
// loop of causal reads. Because the causal view only applies an update after
// all its causal predecessors, every update the matched write depends on
// (transitively, through any chain of processes) is locally applied when
// AwaitCausal returns; causal reads that follow it satisfy Definition 2.
func (n *Node) AwaitCausal(loc string, value int64) { n.awaitValue(loc, value, true) }

// readLocal is the lock-free local lookup the slow and PRAM reads share: one
// hash of the name, one table probe, an atomic value load. anchor says whether
// the read raises the observation fence with the cell's last-writer; a slow
// read does not, so it can never make a later causal read wait. The value is
// loaded before the anchor (appliers store them in the opposite order), so
// the fence entry raised always covers the observed value.
func (n *Node) readLocal(loc string, anchor bool) int64 {
	h := loctab.Hash(loc)
	sh := n.shard(h)
	if sh.invalidLen.Load() != 0 {
		n.waitValid(sh, loc, false)
	}
	var v int64
	if c := n.lookup(h, loc); c != nil {
		v = c.pram.Load()
		if anchor {
			n.raiseFence(c)
		}
	}
	if anchor {
		sh.pramReads.Add(1)
	} else {
		sh.slowReads.Add(1)
	}
	return v
}

// raiseFence records that this process observed the cell's PRAM value: the
// fence entry of its last writer rises to that update. A cell no anchoring
// update has reached (all of them on a PRAMOnly node) raises nothing.
func (n *Node) raiseFence(c *cell) {
	if packed := c.last.Load(); packed != 0 {
		n.fence.raise(int(packed>>seqBits), packed&seqMask)
	}
}

// fenceCovered reports whether the causal view has applied every update the
// observation fence covers. Lock-free: both vectors are atomics, and both
// only grow, so a stale load can only send the caller to the locked slow
// path, never let it pass early.
func (n *Node) fenceCovered() bool {
	for j := 0; j < n.n; j++ {
		if n.causalApplied.get(j) < n.fence.get(j) {
			return false
		}
	}
	return true
}

// waitFence blocks until the causal view has applied every update the
// observation fence covers. loc is the causal read that tripped it, for
// the trace alone.
func (n *Node) waitFence(loc string) {
	start := time.Now()
	n.clockMu.Lock()
	for !n.closed.Load() && !n.fenceCovered() {
		n.clockCond.Wait()
	}
	n.clockMu.Unlock()
	d := int64(time.Since(start))
	n.statBlockedCausal.Add(d)
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvFenceWait, 0, 0, loc, 0, uint64(d), 0)
	}
}

// waitValid blocks while loc is invalidated and the required update has not
// yet reached the relevant view. The caller's shard fast path already saw a
// nonzero invalidation count; the wait itself runs on the clock condition,
// which every apply broadcasts.
func (n *Node) waitValid(sh *shard, loc string, causalView bool) {
	sh.mu.Lock()
	inv, ok := sh.invalid[loc]
	sh.mu.Unlock()
	if !ok {
		return
	}
	start := time.Now()
	n.clockMu.Lock()
	for !n.closed.Load() {
		applied := n.recvd[inv.from]
		if causalView {
			applied = n.causalApplied.get(inv.from)
		}
		if applied >= inv.seq {
			break
		}
		n.clockCond.Wait()
	}
	n.clockMu.Unlock()
	sh.mu.Lock()
	delete(sh.invalid, loc)
	sh.invalidLen.Store(int32(len(sh.invalid)))
	sh.mu.Unlock()
	d := int64(time.Since(start))
	n.statBlockedInval.Add(d)
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvInvalWait, 0, uint16(inv.from), loc, inv.seq, uint64(d), 0)
	}
}

// awaitValue is the wait loop both awaits share. The waiter
// registers on the location's shard (waiters incremented under the shard lock
// before the first value check); appliers store the value and then broadcast
// if any waiter is registered, so the waiter either sees the value or is
// woken.
func (n *Node) awaitValue(loc string, value int64, causalView bool) {
	// Degraded mode: a PRAMOnly node keeps no causal view to wait on.
	causalView = causalView && !n.pramOnly
	// Await registration is a synchronization boundary: a process about
	// to block on a peer's flag must not keep its own half of the
	// handshake parked in the outbox.
	n.FlushUpdates()
	h := loctab.Hash(loc)
	sh := n.shard(h)
	start := time.Now()
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvAwaitBegin, 0, 0, loc, 0, uint64(value), 0)
	}
	var c *cell
	sh.mu.Lock()
	sh.waiters.Add(1)
	for !n.closed.Load() {
		var v int64
		if c = n.lookup(h, loc); c != nil {
			if causalView {
				v = c.causal.Load()
			} else {
				v = c.pram.Load()
			}
		}
		if v == value {
			break
		}
		sh.cond.Wait()
	}
	sh.waiters.Add(-1)
	sh.mu.Unlock()
	if !causalView && c != nil {
		// The matched write is a synchronization edge incident on this
		// process; later causal reads must observe its causal context.
		n.raiseFence(c)
	}
	n.statAwaits.Add(1)
	d := int64(time.Since(start))
	n.statBlockedAwait.Add(d)
	if n.obs != nil {
		// Anchor the wakeup to the matched write (the PRAM last-writer): the
		// explainer chains from it back to the writer's issue event. Zero
		// means the location was never anchored (slow/elided writes); the
		// explainer skips those.
		var packed uint64
		if c != nil {
			packed = c.last.Load()
		}
		n.obs.RecordLoc(obs.EvAwaitEnd, uint8(n.labelOf(loc)), uint16(packed>>seqBits),
			loc, packed&seqMask, uint64(d), 0)
	}
}
