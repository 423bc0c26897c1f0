package dsm

import (
	"time"

	"mixedmem/internal/loctab"
	"mixedmem/internal/obs"
)

// This file holds what the synchronization layer builds on: the sequence
// vectors of the barrier and lazy-lock protocols (node.go), the write log and
// the invalidation table of lock-based propagation. The vectors and the log
// live under the clock lock; invalidations under their shard's.

// SentCounts appends to dst, per destination, the last sequence number sent
// to it, the vector each process reports to the barrier manager (Section 6),
// and returns the extended slice; a dst with room for N words makes it
// allocation-free. With the outbox enabled it first flushes every pending
// batch: the vector is a promise that peers can wait for those updates, so
// nothing it covers may remain parked locally.
func (n *Node) SentCounts(dst []uint64) []uint64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.FlushUpdates()
	return append(dst, n.sent...)
}

// ReceivedCounts appends to dst, per sender, the last sequence number applied
// to the PRAM view (the last own write for the node's own component), and
// returns the extended slice.
func (n *Node) ReceivedCounts(dst []uint64) []uint64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	return append(dst, n.recvd...)
}

// WaitReceived blocks until, for each process j, the PRAM view has applied
// j's update min[j] or a later one.
func (n *Node) WaitReceived(min []uint64) { n.waitSeqs(min, 0) }

// WaitCausalApplied blocks until, for each process j, j's update min[j] or a
// later one has settled: taken its place in the causal view, or, for an
// update under no obligation (its registration contract voids it), in its
// sender's order. A settled update has been received, so this is the one wait
// the barrier and lazy-lock protocols need before the reads that follow them
// (Section 6).
func (n *Node) WaitCausalApplied(min []uint64) { n.waitSeqs(min, 1) }

// waitSeqs blocks until recvd, or causalApplied when causal is 1, reaches min
// in every component. causal also tags the trace event.
func (n *Node) waitSeqs(min []uint64, causal uint64) {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.FlushUpdates()
	start := time.Now()
	for !n.reachedLocked(min, causal == 1) && !n.closed.Load() {
		n.clockCond.Wait()
	}
	d := int64(time.Since(start))
	n.statBlockedCausal.Add(d)
	if n.obs != nil {
		n.obs.Record(obs.EvWaitCounts, 0, 0, obs.NoLoc, 0, uint64(d), causal)
	}
}

func (n *Node) reachedLocked(min []uint64, causal bool) bool {
	for j := 0; j < n.n && j < len(min); j++ {
		seq := n.recvd[j]
		if causal {
			seq = n.causalApplied.get(j)
		}
		if seq < min[j] {
			return false
		}
	}
	return true
}

// WriteRecord identifies one of the node's own updates: the location and the
// per-sender sequence number it was broadcast with.
type WriteRecord struct {
	Loc string
	Seq uint64
}

// WriteMark returns a marker into the node's write log. Combined with
// WritesSince it delimits the write-set of a critical section. Marks are
// absolute positions and stay valid across TrimWriteLog. The first call
// turns logging on: positions are own sequence numbers, so enabling mid-life
// keeps every subsequent mark exactly where eager logging would have put it.
func (n *Node) WriteMark() int {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	if !n.logOn {
		n.logOn = true
		n.logBase = int(n.recvd[n.id])
	}
	return n.logBase + len(n.writeLog)
}

// WritesSince returns a copy of the node's own updates recorded at or after
// the given marker. Entries already trimmed are gone; callers trim only
// below their oldest outstanding mark.
func (n *Node) WritesSince(mark int) []WriteRecord {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	idx := min(max(mark-n.logBase, 0), len(n.writeLog))
	return append([]WriteRecord{}, n.writeLog[idx:]...)
}

// TrimWriteLog discards write-log entries before the given absolute mark,
// bounding the log's memory. The lock client calls it after each unlock with
// its oldest still-outstanding mark.
func (n *Node) TrimWriteLog(upTo int) {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	idx := min(upTo-n.logBase, len(n.writeLog))
	if idx <= 0 {
		return
	}
	kept := copy(n.writeLog, n.writeLog[idx:])
	n.writeLog = n.writeLog[:kept]
	n.logBase += idx
}

type invalidation struct {
	from int
	seq  uint64
}

// Invalidate marks loc stale until the update (from, seq) has been applied:
// the demand-driven propagation mode of Section 6, where the write-set of a
// critical section travels with the unlock and only reads of invalidated
// locations block.
func (n *Node) Invalidate(loc string, from int, seq uint64) {
	sh := n.shard(loctab.Hash(loc))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.invalid[loc]; ok && cur.seq >= seq && cur.from == from {
		return
	}
	if sh.invalid == nil {
		sh.invalid = make(map[string]invalidation)
	}
	sh.invalid[loc] = invalidation{from: from, seq: seq}
	sh.invalidLen.Store(int32(len(sh.invalid)))
}
