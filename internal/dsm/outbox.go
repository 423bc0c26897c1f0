package dsm

// This file is the outbox: per-destination pending batches, their flush
// triggers, the holds that route a critical section's writes through it, and
// the batch wire payload. Its one lock is Node.outboxMu.

import (
	"sync/atomic"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
)

// KindUpdateBatch is the fabric message kind that carries many updates from
// one sender in a single frame. Batching amortizes the per-message cost the
// E6/E8S experiments measure — fabric queue operations, TCP frames, receive
// dispatches, and node-lock acquisitions — without changing what any read can
// observe: mixed consistency (Definition 4) constrains order and visibility
// at reads, not message granularity.
const KindUpdateBatch = "update-batch"

// BatchConfig configures the per-destination update outbox. The zero value
// batches only the writes of a write-locked critical section (Node.Hold):
// every other write broadcasts immediately.
type BatchConfig struct {
	// Enabled routes every write through the outbox. Writes then enqueue into
	// per-destination batches that flush on the thresholds below, on the
	// linger flusher, and at every synchronization boundary (lock request and
	// release, barrier arrival, await registration, explicit FlushUpdates).
	Enabled bool
	// MaxUpdates flushes a destination's batch once it holds this many
	// live entries (default 64), whether or not Enabled is set.
	MaxUpdates int
	// Linger bounds how long an update may sit in the outbox with no
	// synchronization boundary to flush it (default 1ms), with Enabled set.
	// The linger flusher guarantees progress for programs that poll with
	// plain reads instead of awaits; a hold needs none (Node.Hold).
	Linger time.Duration
}

// batchMaxBytes flushes a destination's batch once its modeled wire size
// reaches this many bytes, whether or not BatchConfig.Enabled is set.
const batchMaxBytes = 16 << 10

// WithDefaults returns the config with unset thresholds filled in, exactly
// as NewNode resolves them.
func (c BatchConfig) WithDefaults() BatchConfig {
	if c.MaxUpdates <= 0 {
		c.MaxUpdates = 64
	}
	if c.Linger <= 0 {
		c.Linger = time.Millisecond
	}
	return c
}

// UpdateBatch is the payload of a KindUpdateBatch message, which carries a
// *UpdateBatch on every transport: a contiguous run of one sender's updates
// for one destination, possibly with superseded same-location OpSet entries
// coalesced away. Like an Update, the batch and its Deps are never written
// once sent; the runtime's batches are pooled elements (stampedBatch) that
// their one holder releases.
//
// FirstSeq is the sequence number of the first update enqueued for the
// destination. The surviving entries each carry their own Seq/TS, and the
// entry with the highest Seq is always the sender's latest covered write (the
// latest write is never coalesced away): the sequence number the receiver's
// vectors advance to, the one unit they hold. So the run a batch covers is
// FirstSeq through its latest entry, coalesced-away updates included; under
// scoped placement it has the holes of the updates addressed elsewhere.
//
// Entries may mix obligations: each carries its own (the elided flag, on the
// wire a bit of its flags byte), and the receiver PRAM-applies the whole batch,
// settles the obNone entries there, and delivers the rest to the causal view
// as one group. Under a scope the obMatrix entries hoist their dependency
// matrix to the batch level: Deps is the address-matrix snapshot captured
// when the batch's latest obMatrix entry was enqueued, under the same lock
// hold as that write's matrix bumps. One matrix covers them all because a
// sender's matrix is monotone: the latest write's dependencies dominate every
// earlier entry's. The snapshot is never taken at flush time — between enqueue
// and flush the sender can absorb matrices from applied remote updates, and a
// flush-time snapshot could name an update Y that itself (transitively) waits
// on a write parked in this very batch, leaving the receiver's causal view in
// a permanent circular wait (batch waits on Y, Y waits on the batch). A batch
// with no obMatrix entry leaves Deps nil. Like an update, a batch carries
// nothing that orders it after the sender's earlier ones: the FIFO channel
// does.
type UpdateBatch struct {
	From     int
	FirstSeq uint64
	// Deps is the sender's address matrix snapshot (scoped batches with an
	// obMatrix entry only); see Update.Deps for the sharing contract.
	Deps    Matrix
	Updates []Update
	// elem is the pooled element the batch is the payload of, nil for a batch
	// that is its own allocation (element).
	elem *stampedBatch
}

// encodedSize is the wire size of the batch, byte for byte what batchCodec
// writes: the header, the dependency section and the entries, each with its
// sequence number as the distance from FirstSeq. The sender ID and dependency
// section are hoisted into the header, which is the (small) wire win of
// batching on top of the per-frame overhead it removes.
func (b *UpdateBatch) encodedSize() int {
	s := transport.UvarintLen(uint64(b.From)) + transport.UvarintLen(b.FirstSeq) +
		depsSize(b.Deps) + transport.UvarintLen(uint64(len(b.Updates)))
	for i := range b.Updates {
		s += b.Updates[i].entrySize(b.Updates[i].Seq - b.FirstSeq)
	}
	return s
}

func init() {
	// The tcp transport recycles a payload once its frame is encoded, once
	// per destination message: the message's reference to a batch or an
	// update is dropped. The sim fabric delivers by reference and the
	// receiver releases instead (see stampedBatch and stampedUpdate).
	transport.RegisterRecycler(KindUpdateBatch, func(payload any) {
		if b, ok := payload.(*UpdateBatch); ok {
			b.release()
		}
	})
	transport.RegisterRecycler(KindUpdate, func(payload any) {
		if u, ok := payload.(*Update); ok {
			u.release()
		}
	})
}

// outboxDest buffers the pending batch for one destination. All destinations
// share the node-level outbox lock — the bottom of the documented lock order
// (clockMu -> shard.mu -> outboxMu): writers enqueue under the clock lock
// and are already serialized by it, so per-destination locks would buy no
// writer parallelism while costing one lock pair per destination per write;
// a single outbox lock keeps the linger flusher decoupled from the
// clock-guarded hot paths at one lock pair per write. entries is a reusable
// ring backing, and stamps holds entry i's timestamp at i·N: a flush copies
// the live prefix into a pooled element and truncates, so steady-state
// flushing allocates nothing and neither backing is ever handed to a message.
// Both are carved on the destination's first write, from the slabs of the
// pool the flushed batches come from, and grow by doubling when a batch
// outgrows them.
type outboxDest struct {
	entries  []Update
	stamps   []uint64
	firstSeq uint64
	// lastSeq is the highest covered sequence number (coalescing can park it
	// at any entry index, so it is tracked at enqueue time); the flush trace
	// event ships the inclusive [firstSeq, lastSeq] range.
	lastSeq uint64
	// count is the number of updates enqueued, coalesced-away ones included:
	// a batch of one update ships as a plain update frame.
	count uint64
	bytes int
	// deps is the address-matrix snapshot of the batch's latest obMatrix
	// entry, captured at enqueue time (shared with the write's other
	// destinations; receivers only merge from it), and nil while the batch
	// holds none. depsEpoch records Node.addrEpoch at capture, so
	// outboxAddLocked can detect that the node absorbed a remote matrix merge
	// after the snapshot and split the batch instead of letting a newer
	// snapshot cover older parked writes.
	deps      Matrix
	depsEpoch uint64
}

// flushCause is what closed a pending batch, the index of Node.flushes.
type flushCause int

const (
	flushThreshold flushCause = iota // MaxUpdates or batchMaxBytes reached
	flushSync                        // FlushUpdates: a synchronization boundary
	flushLinger                      // the linger flusher, or heldReadsPerFlush reads in a hold
	flushEpoch                       // an obMatrix entry after a remote matrix merge
	numFlushCauses
)

// flushCount counts the frames flushed for one cause and the entries they
// carried.
type flushCount struct{ frames, entries atomic.Uint64 }

func (c *flushCount) load() FlushCount {
	return FlushCount{Frames: c.frames.Load(), Entries: c.entries.Load()}
}

// growRing gives d's entry ring room for one more entry, carved from p; the
// entries carried over keep their stamps where they are, which nothing writes
// again.
func (d *outboxDest) growRing(p *batchPool) {
	r := p.entries.Room(max(batchRoom, 2*cap(d.entries)), batchRoom, entrySlab)
	d.entries = append(r, d.entries...)
}

// stampSlot returns the w words entry i's stamp is kept in, growing the stamp
// ring from p when it is too short: the entries before i keep pointing into
// the old one, which nothing writes any more.
func (d *outboxDest) stampSlot(p *batchPool, i, w int) []uint64 {
	if need := (i + 1) * w; cap(d.stamps) < need {
		d.stamps = p.words.Room(max(need, batchRoom*w, 2*cap(d.stamps)), batchRoom, wordSlab)
	}
	d.stamps = d.stamps[:cap(d.stamps)]
	return d.stamps[i*w : (i+1)*w : (i+1)*w]
}

// lastOf returns the index of the latest entry for the location the sender
// numbers ord (Update.Ordinal), or -1. An entry is replaced in place when
// coalesced, so the latest one for a location sits at its highest index.
func (d *outboxDest) lastOf(ord uint32) int {
	for k := len(d.entries) - 1; k >= 0; k-- {
		if d.entries[k].Ordinal == ord {
			return k
		}
	}
	return -1
}

// outboxAddLocked adds u, stamped under ob and size bytes on its own (its
// encodedSize), to destination j's pending batch, coalescing into the
// location's live OpSet entry when allowed, and flushes inline when a
// threshold is crossed. The caller holds the clock lock
// (sequence numbers must hit the outbox in assignment order) and the outbox
// lock — one acquisition covers all destinations of a write. The entry keeps
// its obligation, so a batch mixes them freely. obMatrix entries ride without
// per-entry dependency metadata: the batch-level Deps is snap, the caller's
// address-matrix snapshot taken under the same lock hold as this write's
// bumps, refreshed by every obMatrix enqueue (the latest such write's
// dependencies dominate the rest). A pending batch whose snapshot predates a
// remote matrix merge (addrEpoch moved) is flushed before another obMatrix
// entry joins: this write's snapshot may name a just-merged update that itself
// waits on a write parked in the old batch, and shipping them under one matrix
// would hand the receiver a circular wait. Other entries carry no matrix, so
// they never split a batch.
func (n *Node) outboxAddLocked(j int, u *Update, ob obligation, snap Matrix, size int) {
	d := &n.outbox[j]
	if ob == obMatrix {
		if d.deps != nil && d.depsEpoch != n.addrEpoch {
			n.flushCauseLocked(flushEpoch, j, d)
		}
		d.deps, d.depsEpoch = snap, n.addrEpoch
	}
	if d.count == 0 {
		d.firstSeq = u.Seq
	}
	d.count++
	d.lastSeq = u.Seq
	// Last-writer-wins coalescing: a superseded plain write is dropped from
	// the batch (its sequence number still lies in the run the batch covers),
	// so readers skip values the sender overwrote before the flush — a skip
	// the condition-variable wakeup race already permits in unbatched
	// executions. A location's copies to one destination are all stamped
	// alike, so an entry only ever replaces one of its own obligation. An
	// entry that replaces the location's definition defines it in its place:
	// the receiver would otherwise never learn the name. The target is the
	// location's latest entry if that is an OpSet: an add bars later sets
	// from jumping over it, so commutative adds keep their position relative
	// to the sets around them.
	i, defines := len(d.entries), false
	if u.Op == OpSet {
		if k := d.lastOf(u.Ordinal); k >= 0 && d.entries[k].Op == OpSet {
			i, defines = k, d.entries[k].Defines
			d.bytes -= d.entries[i].encodedSize()
		}
	}
	if i == len(d.entries) {
		if i == cap(d.entries) {
			d.growRing(&n.flushBatches)
		}
		d.entries = d.entries[:i+1]
	}
	d.entries[i] = *u
	if w := len(u.TS); w > 0 {
		// u.TS is the live clock (emitLocked): the entry keeps a copy in its
		// slot of the stamp ring.
		d.entries[i].TS = d.stampSlot(&n.flushBatches, i, w)
		copy(d.entries[i].TS, u.TS)
	}
	d.entries[i].elided = ob == obNone
	if defines {
		d.entries[i].Defines = true
		size = d.entries[i].encodedSize()
	}
	d.bytes += size
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvEnqueue, uint8(u.Label), uint16(j), u.Loc, u.Seq,
			uint64(len(d.entries)), 0)
	}
	if len(d.entries) >= n.batch.MaxUpdates || d.bytes >= batchMaxBytes {
		n.flushCauseLocked(flushThreshold, j, d)
	}
}

// flushCauseLocked flushes destination j's pending batch, if any, counting it
// under cause; the caller holds outboxMu.
func (n *Node) flushCauseLocked(cause flushCause, j int, d *outboxDest) {
	if d.count == 0 {
		return
	}
	c := &n.flushes[cause]
	c.frames.Add(1)
	c.entries.Add(uint64(len(d.entries)))
	n.flushDestLocked(j, d)
}

// flushDestLocked sends destination j's pending batch, if any; the caller
// holds outboxMu. A batch that covers a single update goes out as a plain
// KindUpdate frame — the receive path and wire format are then identical to
// unbatched operation (an obNone entry's frame has no Deps, which is how the
// receiver knows it). A multi-entry batch is copied, entries and stamps, into
// an element of the outbox's batch pool, which its one holder releases; the
// ring backings themselves are reused forever. A batch with obMatrix entries
// ships its enqueue-time snapshot, never the current matrix: that may have
// absorbed merges since which could close a dependency cycle through this very
// batch (see outboxAddLocked). The payload — the single-update frame's
// *Update or the *UpdateBatch — comes from the outbox's own pools, not the
// node's: those are guarded by the clock lock, and a flush — the linger
// flusher's in particular — holds only outboxMu.
func (n *Node) flushDestLocked(j int, d *outboxDest) {
	if d.count == 0 {
		return
	}
	if d.count == 1 && len(d.entries) == 1 {
		e := takeUpdate(&n.flushPool, &d.entries[0], 1)
		if w := len(e.TS); w > 0 {
			ts := e.words[:0]
			if w > tsInline {
				ts = n.flushTS.Run(w)[:0]
			}
			e.TS = append(ts, e.TS...)
		}
		u := &e.Update
		u.Deps, u.elided = d.deps, false
		_ = n.fabric.Send(network.Message{
			From: n.id, To: j, Kind: KindUpdate,
			Payload: u, Size: u.encodedSize(),
		})
	} else {
		e := takeBatch(&n.flushBatches, len(d.entries), stampWords(d.entries))
		e.From, e.FirstSeq, e.Deps = n.id, d.firstSeq, d.deps
		e.Updates = append(e.Updates, d.entries...)
		fillStamps(e)
		b := &e.UpdateBatch
		_ = n.fabric.Send(network.Message{
			From: n.id, To: j, Kind: KindUpdateBatch,
			Payload: b, Size: b.encodedSize(),
		})
	}
	if n.obs != nil {
		n.obs.Record(obs.EvFlush, 0, uint16(j), obs.NoLoc, d.firstSeq, d.lastSeq, d.count)
	}
	d.entries = d.entries[:0]
	d.count = 0
	d.bytes = 0
	d.deps = nil
}

// FlushUpdates sends every pending outbox batch immediately. It is the
// synchronization-boundary hook: the lock client calls it before every
// request and release, the barrier client before reporting its sent counts,
// and awaits call it on registration, so no update a peer must observe to make
// progress is ever parked in the outbox past a synchronization point. It is a
// no-op on a node without an outbox. It takes only the outbox lock (callers
// may hold the clock lock: clockMu -> outboxMu), so the linger flusher never
// contends with the clock-guarded hot paths.
func (n *Node) FlushUpdates() { n.flushAll(flushSync) }

func (n *Node) flushAll(cause flushCause) {
	if !n.outboxBuilt.Load() {
		return
	}
	n.outboxMu.Lock()
	n.flushAllLocked(cause)
	n.outboxMu.Unlock()
}

// flushAllLocked flushes every destination's pending batch; the caller holds
// outboxMu, and the outbox is built.
func (n *Node) flushAllLocked(cause flushCause) {
	for j := range n.outbox {
		n.flushCauseLocked(cause, j, &n.outbox[j])
	}
}

// buildOutboxLocked builds the per-destination outbox, once; the caller holds
// clockMu, which every reader of n.outbox but flushAll holds, and flushAll
// reads it only once outboxBuilt says it is built.
func (n *Node) buildOutboxLocked() {
	if n.outbox != nil {
		return
	}
	outbox := make([]outboxDest, n.n) // the node's own slot stays empty
	n.outboxMu.Lock()
	n.outbox = outbox
	n.outboxMu.Unlock()
	n.outboxBuilt.Store(true)
}

// heldReadsPerFlush is how many reads in a row, with no write between them,
// flush the outbox while a hold is open. A process that polls a location with
// plain reads inside a critical section, waiting for a peer that needs the
// section's parked writes first, would otherwise wait forever: a hold has no
// linger flusher. A critical section that reads before each write never
// reaches it.
const heldReadsPerFlush = 16

// Hold opens a hold: until every hold is closed, the node's writes — every
// strand's, since a hold is the node's — go to the per-destination outbox
// instead of to the transport, and leave together as one frame per
// destination. The lock client opens one for each write-locked critical
// section (Section 6: a critical section's updates need only reach the next
// holder of the lock by that holder's acquire). The first hold builds the
// outbox; a node that never holds one never builds it. The outbox flushes when
// a hold closes, at its thresholds, after heldReadsPerFlush reads in a row,
// and wherever the node can block: a lock request, an await, a barrier's sent
// counts, a sequence wait, an SC round trip, an invalidation stall and Close.
func (n *Node) Hold() {
	if !n.outboxBuilt.Load() {
		n.clockMu.Lock()
		n.buildOutboxLocked()
		n.clockMu.Unlock()
	}
	n.holds.Add(1)
}

// Unhold closes a hold opened by Hold and flushes the outbox: the end of a
// critical section is a release, and what it wrote must be on its way before
// the lock is. Between the close and the flush a write from another strand
// may find no hold open while this one's entries are still parked;
// sendLocked flushes them before it sends.
func (n *Node) Unhold() {
	n.holds.Add(-1)
	n.FlushUpdates()
}

// readInHold counts a read made while a hold is open, and flushes the outbox
// at every heldReadsPerFlush-th read in a row.
func (n *Node) readInHold() {
	if n.heldReads.Add(1)%heldReadsPerFlush == 0 {
		n.flushAll(flushLinger)
	}
}

// lingerLoop is the outbox's progress guarantee with Batch.Enabled: every
// Linger interval it flushes whatever the thresholds and synchronization
// boundaries have not, bounding the staleness a polling reader can observe.
func (n *Node) lingerLoop() {
	t := time.NewTicker(n.batch.Linger)
	defer t.Stop()
	for {
		select {
		case <-n.flushQuit:
			return
		case <-t.C:
			n.flushAll(flushLinger)
		}
	}
}
