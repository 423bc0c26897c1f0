package dsm

// This file is the outbox: per-destination pending batches, their flush
// triggers, and the batch wire payload. Its one lock is Node.outboxMu.

import (
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// KindUpdateBatch is the fabric message kind that carries many updates from
// one sender in a single frame. Batching amortizes the per-message cost the
// E6/E8S experiments measure — fabric queue operations, TCP frames, receive
// dispatches, and node-lock acquisitions — without changing what any read can
// observe: mixed consistency (Definition 4) constrains order and visibility
// at reads, not message granularity.
const KindUpdateBatch = "update-batch"

// BatchConfig configures the per-destination update outbox. The zero value
// disables batching entirely: every write broadcasts immediately, exactly as
// before the outbox existed.
type BatchConfig struct {
	// Enabled turns the outbox on. Writes then enqueue into per-destination
	// batches that flush on the thresholds below and at every
	// synchronization boundary (lock release, barrier arrival, await
	// registration, explicit FlushUpdates).
	Enabled bool
	// MaxUpdates flushes a destination's batch once it holds this many
	// live entries (default 64).
	MaxUpdates int
	// MaxBytes flushes a destination's batch once its modeled wire size
	// reaches this many bytes (default 16384).
	MaxBytes int
	// Linger bounds how long an update may sit in the outbox with no
	// synchronization boundary to flush it (default 1ms). The linger
	// flusher guarantees progress for programs that poll with plain reads
	// instead of awaits.
	Linger time.Duration
}

// WithDefaults returns the config with unset thresholds filled in, exactly
// as NewNode resolves them.
func (c BatchConfig) WithDefaults() BatchConfig {
	if c.MaxUpdates <= 0 {
		c.MaxUpdates = 64
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 16 << 10
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
// once sent; its entry slice is handed off to whoever recycles it (see
// updateSlicePool).
//
// FirstSeq and Count describe the covered run of per-destination enqueued
// updates, including coalesced-away ones, so the receiver's counting
// primitives (barrier count vectors, lazy-lock waits) account every original
// update. Under full broadcast the covered per-sender sequence numbers are
// exactly [FirstSeq, FirstSeq+Count-1]; under scoped placement the run may
// have per-destination holes and only Count is meaningful. The surviving
// entries each carry their own Seq/TS, and the entry with the highest Seq is
// always the sender's latest covered write (the latest write is never
// coalesced away), which is what the receiver's PRAM clock advances to.
//
// Entries may mix obligations: each carries its own (the elided flag, on the
// wire a bit of its Op byte), and the receiver PRAM-applies the whole batch,
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
	Count    uint64
	// Deps is the sender's address matrix snapshot (scoped batches with an
	// obMatrix entry only); see Update.Deps for the sharing contract.
	Deps    vclock.Matrix
	Updates []Update
}

// encodedSize models the wire size of the batch: header plus entries,
// mirroring batchCodec's layout. The per-entry sender ID and dependency
// section are hoisted into the header, which is the (small) wire win of
// batching on top of the per-frame overhead it removes.
func (b *UpdateBatch) encodedSize() int {
	s := 28 // From + FirstSeq + Count + depsN prefix + nEntries
	if b.Deps != nil {
		s += b.Deps.ActiveEncodedSize() // the sparse matrix
	}
	for i := range b.Updates {
		s += b.Updates[i].encodedSize() - 8 // From and the depsN prefix live in the header
	}
	return s
}

// updateSlicePool recycles the []Update slices that carry batch payloads
// (DESIGN.md §12 pool lifecycle). A flush copies the destination's fixed
// ring into a pooled slice; ownership then travels with the message:
//
//   - sim fabric: the receive path returns the slice once the batch has
//     settled (by-reference delivery — the sender retains nothing after
//     Send);
//   - tcp: the sending transport returns it after encoding the frame
//     (transport.RecyclePayload), and the receiving codec draws its decode
//     slice from this same pool, to be returned by its receive path.
//
// A put slice must not be referenced by anyone else; entries are cleared so
// pooled slices pin no update payloads. The pool is a plain mutex-guarded
// freelist rather than a sync.Pool so get/put are themselves alloc-free
// (sync.Pool's pointer boxing costs an allocation per put).
var updateSlicePool struct {
	mu   sync.Mutex
	free [][]Update
}

func getUpdateSlice(capHint int) []Update {
	p := &updateSlicePool
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		s := p.free[i]
		if cap(s) >= capHint {
			p.free[i] = p.free[len(p.free)-1]
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			p.mu.Unlock()
			return s[:0]
		}
	}
	p.mu.Unlock()
	return make([]Update, 0, capHint)
}

func putUpdateSlice(s []Update) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	p := &updateSlicePool
	p.mu.Lock()
	if len(p.free) < 64 {
		p.free = append(p.free, s[:0])
	}
	p.mu.Unlock()
}

func init() {
	// The tcp transport recycles a batch payload once the frame is encoded;
	// the sim fabric delivers by reference and the receiver recycles
	// instead (see updateSlicePool).
	transport.RegisterRecycler(KindUpdateBatch, func(payload any) {
		if b, ok := payload.(*UpdateBatch); ok {
			putUpdateSlice(b.Updates)
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
// ring backing sized for MaxUpdates at construction: a flush copies the live
// prefix into a pooled slice and truncates, so steady-state flushing
// allocates nothing and the backing is never handed to a message.
type outboxDest struct {
	entries []Update
	// setIdx maps a location to the index in entries of its latest live
	// OpSet entry, the coalescing target. A non-OpSet write to the location
	// deletes the mapping so commutative adds keep their position relative
	// to the sets around them.
	setIdx   map[string]int
	firstSeq uint64
	// lastSeq is the highest covered sequence number (coalescing can park it
	// at any entry index, so it is tracked at enqueue time); the flush trace
	// event ships the inclusive [firstSeq, lastSeq] range.
	lastSeq uint64
	count   uint64
	bytes   int
	// deps is the address-matrix snapshot of the batch's latest obMatrix
	// entry, captured at enqueue time (shared with the write's other
	// destinations; receivers only merge from it), and nil while the batch
	// holds none. depsEpoch records Node.addrEpoch at capture, so
	// outboxAddLocked can detect that the node absorbed a remote matrix merge
	// after the snapshot and split the batch instead of letting a newer
	// snapshot cover older parked writes.
	deps      vclock.Matrix
	depsEpoch uint64
}

// flushCause is what closed a pending batch, the index of Node.flushes.
type flushCause int

const (
	flushThreshold flushCause = iota // MaxUpdates or MaxBytes reached
	flushSync                        // FlushUpdates: a synchronization boundary
	flushLinger                      // the linger flusher
	flushEpoch                       // an obMatrix entry after a remote matrix merge
	numFlushCauses
)

// flushCount counts the frames flushed for one cause and the entries they
// carried.
type flushCount struct{ frames, entries atomic.Uint64 }

func (c *flushCount) load() FlushCount {
	return FlushCount{Frames: c.frames.Load(), Entries: c.entries.Load()}
}

func newOutboxDest(maxUpdates int) *outboxDest {
	// Preallocate the backing up to a sane bound; configs with huge
	// MaxUpdates (tests disabling threshold flushes) grow on demand, and
	// the backing persists across flushes either way.
	return &outboxDest{
		entries: make([]Update, 0, min(maxUpdates, 256)),
		setIdx:  make(map[string]int),
	}
}

// outboxAddLocked adds u, stamped under ob, to destination j's pending batch,
// coalescing into the location's live OpSet entry when allowed, and flushes
// inline when a threshold is crossed. The caller holds the clock lock
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
func (n *Node) outboxAddLocked(j int, u *Update, ob obligation, snap vclock.Matrix) {
	d := n.outbox[j]
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
	// the batch (its sequence number is still accounted through the batch's
	// Count), so readers skip values the sender overwrote before the flush —
	// a skip the condition-variable wakeup race already permits in unbatched
	// executions. A location's copies to one destination are all stamped
	// alike, so an entry only ever replaces one of its own obligation.
	i, coalesced := len(d.entries), false
	if u.Op == OpSet {
		if k, ok := d.setIdx[u.Loc]; ok {
			i, coalesced = k, true
			d.bytes -= d.entries[i].encodedSize()
		} else {
			d.setIdx[u.Loc] = i
		}
	} else {
		// An add bars later sets from jumping over it: the location's next
		// OpSet must append after this entry.
		delete(d.setIdx, u.Loc)
	}
	if !coalesced {
		d.entries = append(d.entries, Update{})
	}
	d.entries[i] = *u
	d.entries[i].elided = ob == obNone
	d.bytes += u.encodedSize()
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvEnqueue, uint8(u.Label), uint16(j), u.Loc, u.Seq,
			uint64(len(d.entries)), 0)
	}
	if len(d.entries) >= n.batch.MaxUpdates || d.bytes >= n.batch.MaxBytes {
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
// receiver knows it). Multi-entry batches copy the ring's live prefix into
// a pooled slice (see updateSlicePool for who returns it); the ring backing
// itself is reused forever. A batch with obMatrix entries ships its
// enqueue-time snapshot, never the current matrix: that may have absorbed
// merges since which could close a dependency cycle through this very batch
// (see outboxAddLocked). The payload — the single-update frame's *Update or
// the *UpdateBatch — is the next element of the outbox's own slab, not the
// node's: those are guarded by the clock lock, and a flush — the linger
// flusher's in particular — holds only outboxMu.
func (n *Node) flushDestLocked(j int, d *outboxDest) {
	if d.count == 0 {
		return
	}
	if d.count == 1 && len(d.entries) == 1 {
		u := carve(&n.flushUpd)
		*u = d.entries[0]
		u.Deps, u.elided = d.deps, false
		_ = n.fabric.Send(network.Message{
			From: n.id, To: j, Kind: KindUpdate,
			Payload: u, Size: u.encodedSize(),
		})
	} else {
		b := carve(&n.flushBatch)
		*b = UpdateBatch{
			From: n.id, FirstSeq: d.firstSeq, Count: d.count, Deps: d.deps,
			Updates: append(getUpdateSlice(len(d.entries)), d.entries...),
		}
		_ = n.fabric.Send(network.Message{
			From: n.id, To: j, Kind: KindUpdateBatch,
			Payload: b, Size: b.encodedSize(),
		})
	}
	if n.obs != nil {
		n.obs.Record(obs.EvFlush, 0, uint16(j), obs.NoLoc, d.firstSeq, d.lastSeq, d.count)
	}
	d.entries = d.entries[:0]
	clear(d.setIdx)
	d.count = 0
	d.bytes = 0
	d.deps = nil
}

// FlushUpdates sends every pending outbox batch immediately. It is the
// synchronization-boundary hook: the lock client calls it before every
// release, the barrier client before reporting its sent counts, and awaits
// call it on registration, so no update a peer must observe to make progress
// is ever parked in the outbox past a synchronization point. It is a no-op
// when batching is disabled. It takes only the outbox lock (callers may hold
// the clock lock: clockMu -> outboxMu), so the linger flusher never contends
// with the clock-guarded hot paths.
func (n *Node) FlushUpdates() { n.flushAll(flushSync) }

func (n *Node) flushAll(cause flushCause) {
	if n.outbox == nil {
		return
	}
	n.outboxMu.Lock()
	for j, d := range n.outbox {
		if d != nil {
			n.flushCauseLocked(cause, j, d)
		}
	}
	n.outboxMu.Unlock()
}

// lingerLoop is the outbox's progress guarantee: every Linger interval it
// flushes whatever the thresholds and synchronization boundaries have not,
// bounding the staleness a polling reader can observe.
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
