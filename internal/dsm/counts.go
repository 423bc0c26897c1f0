package dsm

import (
	"time"

	"mixedmem/internal/loctab"
	"mixedmem/internal/obs"
)

// This file holds what the synchronization layer builds on: the count vectors
// of the barrier message-count protocol, the write log and the invalidation
// table of lock-based propagation. The vectors and the log live under the
// clock lock; invalidations under their shard's.

// SentCounts appends to dst a snapshot of the cumulative per-destination
// update counts, the vector each process reports to the barrier manager
// (Section 6), and returns the extended slice; a dst with room for N words
// makes it allocation-free. With the outbox enabled it first flushes every
// pending batch: the counts are a promise that peers can wait for that many
// updates, so nothing counted may remain parked locally.
func (n *Node) SentCounts(dst []uint64) []uint64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.FlushUpdates()
	return append(dst, n.sent...)
}

// ReceivedCounts appends to dst, per sender, the cumulative number of updates
// applied to the PRAM view (own writes for the node's own component), and
// returns the extended slice.
func (n *Node) ReceivedCounts(dst []uint64) []uint64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	return append(dst, n.recvd...)
}

// WaitReceived blocks until at least min[j] updates from each process j have
// been applied to the PRAM view. The barrier protocol uses it to ensure all
// prior-phase updates are in place before the phase's reads (Section 6).
func (n *Node) WaitReceived(min []uint64) { n.waitCounts(n.recvd, min, 0) }

// WaitCausalApplied blocks until at least min[j] updates from each process j
// have met their causal-view obligations locally: applied to the causal view
// for dependency-stamped updates, applied to the PRAM view for those under no
// obligation (their registration contract voids it). Under full broadcast
// this is exactly "applied to the causal view"; under scoped placement the
// count-based phrasing stays sound where per-sender sequence numbers have
// holes.
func (n *Node) WaitCausalApplied(min []uint64) { n.waitCounts(n.causalRecvd, min, 1) }

// waitCounts blocks until counts, a vector guarded by the clock lock, reaches
// min in every component. causal tags the trace event.
func (n *Node) waitCounts(counts, min []uint64, causal uint64) {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.FlushUpdates()
	start := time.Now()
	for !reached(counts, min) && !n.closed.Load() {
		n.clockCond.Wait()
	}
	d := int64(time.Since(start))
	n.statBlockedCausal.Add(d)
	if n.obs != nil {
		n.obs.Record(obs.EvWaitCounts, 0, 0, obs.NoLoc, 0, uint64(d), causal)
	}
}

func reached(counts, min []uint64) bool {
	for j := 0; j < len(counts) && j < len(min); j++ {
		if counts[j] < min[j] {
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
// turns logging on: positions are own-write counts, so enabling mid-life
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
