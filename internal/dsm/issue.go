package dsm

import (
	"math"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/slab"
	"mixedmem/internal/transport"
)

// This file is the issue path: a local write is numbered, applied to the
// writer's own replica, stamped, and handed to each destination. It runs
// under the clock lock.

// KindUpdate is the fabric message kind used for memory updates.
const KindUpdate = "update"

// UpdateOp distinguishes plain writes from commutative counter operations.
type UpdateOp int

// Update operation kinds.
const (
	// OpSet is an ordinary write: the location takes the given value.
	OpSet UpdateOp = iota + 1
	// OpAdd is a commutative increment/decrement: the value is added to
	// the location's current contents. Adds from different processes
	// commute, which is what lets the counter-object Cholesky variant drop
	// its critical sections (Section 5.3).
	OpAdd
	// OpAddFloat adds float64 values through their bit patterns: the
	// location's contents and the update value are interpreted with
	// math.Float64frombits, summed, and stored back with Float64bits.
	// Floating-point addition commutes up to rounding, which is the
	// paper's counter-object view of the Cholesky column updates.
	OpAddFloat
)

// Update is the payload broadcast for every write or counter operation. A
// KindUpdate message carries a *Update, on every transport and from every
// sender. The update, its TS and its Deps are never written while anyone holds
// it: the simulated fabric delivers the same pointer to every destination, and
// a receiver keeps referring to the metadata of a parked group for as long as
// it stays parked. The runtime's own updates are pooled elements
// (stampedUpdate) that go back to their pool once every holder has released
// them; a holder that keeps one past its release takes a reference of its own.
type Update struct {
	// From is the writing process.
	From int
	// Seq is the per-sender update sequence number, starting at 1.
	Seq uint64
	// Op selects set or add semantics.
	Op UpdateOp
	// Label tags the update with its location's lattice point
	// (Config.Labels). LabelSlow is semantic: it marks a timestamp-elided
	// update whose causal-view delivery waits only on the sender's own
	// per-location FIFO, never on cross-sender dependencies — the slow-memory
	// contract. Every other value (including LabelNone for unlabeled
	// locations) is informational: the receiver's handling is driven by the
	// causal metadata the update carries.
	Label history.Label
	// Loc is the memory location. The wire carries it only in a definition
	// (Defines); a decoded reference leaves it empty, and on either substrate
	// the receiver names the location by Ordinal alone.
	Loc string
	// Value is the written value or the addend.
	Value int64
	// TS is the writer's dependency clock after this update: TS[j] is the
	// last sequence number from process j the writer has applied, Seq for
	// j == From. It is set only under full broadcast; scoped
	// causal updates carry Deps instead, and timestamp-elided updates
	// (PRAMOnly mode, or PRAM-registered readers of a scoped location) carry
	// neither.
	TS []uint64
	// Deps, on a causal-scoped update, is the sender's address-matrix
	// snapshot: Deps[p][k] is the latest update from process k addressed
	// to process p that this update transitively depends on. The receiver
	// waits on its own row and merges the whole matrix; it never mutates
	// it (the snapshot, like the whole update, is shared across the write's
	// destinations). Nothing orders one sender's updates but the channel:
	// the destination's view of the sender's sequence numbers has holes, and
	// FIFO delivery plus the receiver's per-sender queue keep them in order.
	Deps Matrix
	// Ordinal is the location's rank, from 0, among the locations the sender
	// has written, in the order of their first writes; it is below Seq.
	// Defines marks the sender's first write of the location, the one update
	// that names it on the wire: each reader of the location receives it, since
	// a location's readers never change, and the channel is FIFO, so a later
	// update refers to the location by its ordinal and every receiver already
	// holds the name (deliver.go's reference tables). The bit belongs to the
	// write, not to a destination, so one update still serves all of them.
	Ordinal uint32
	Defines bool
	// elided marks a batch entry whose copy was stamped under obNone — under a
	// scope, the copy to a PRAM-registered reader — so the receiver keeps it
	// out of the causal group the batch's other entries form. The batch codec
	// carries it as the high bit of the entry's flags byte; a single-update
	// frame never sets it, since its Deps say the same, and its decoder refuses
	// the bit.
	elided bool
	// elem is the pooled element the update is the payload of, nil for an
	// update that is its own allocation. A copy of a pooled update keeps the
	// pointer but is not the element's payload, so it holds no reference
	// (element).
	elem *stampedUpdate
}

// encodedSize is the wire size of an update, byte for byte what updateCodec
// writes: the sender, the entry (sequence number, flags, location ordinal and,
// in a definition, name, value, timestamp less its sender component) and, when
// it has one, the dependency section, whose sparse matrix tracks the active
// peers, not the cluster dimension. It is the Size every transport counts, and
// it depends on no clock or matrix entry's value, only on how many there are.
func (u *Update) encodedSize() int {
	s := transport.UvarintLen(uint64(u.From)) + u.entrySize(u.Seq)
	if len(u.Deps) == 0 {
		return s
	}
	return s + depsSize(u.Deps)
}

// Write stores value at loc. For broadcast labels (everything but SC) it is
// non-blocking: the response is local and the update propagates
// asynchronously, as the paper's interface permits (Section 3). A write to an
// SC-labeled location is a blocking round trip to the location's owner.
func (n *Node) Write(loc string, value int64) { n.write(OpSet, loc, value) }

// Add applies a commutative increment (negative for decrement) to a counter
// object (Section 5.3).
func (n *Node) Add(loc string, delta int64) { n.write(OpAdd, loc, delta) }

// AddFloat applies a commutative float64 increment to a location holding a
// Float64bits-encoded value: the counter-object view of the Cholesky column
// updates (Section 5.3).
func (n *Node) AddFloat(loc string, delta float64) {
	n.write(OpAddFloat, loc, int64(math.Float64bits(delta)))
}

// write routes one write-kind operation by the location's label: an owner
// round trip for SC, an update to the location's readers for everything else.
func (n *Node) write(op UpdateOp, loc string, value int64) {
	if label := n.labelOf(loc); label == history.LabelSC {
		n.scApply(op, loc, value)
	} else {
		n.issue(op, label, loc, value)
	}
}

func (n *Node) issue(op UpdateOp, label history.Label, loc string, value int64) {
	h := loctab.Hash(loc)
	sh := n.shard(h)
	le := n.locFor(h, loc)
	c := le.Value()
	n.clockMu.Lock()
	seq := n.recvd[n.id] + 1
	n.recvd[n.id] = seq
	defines := c.ord == 0
	if defines {
		n.ords++
		c.ord = n.ords
	}
	u := Update{From: n.id, Seq: seq, Op: op, Label: label, Loc: loc, Value: value,
		Ordinal: c.ord - 1, Defines: defines}
	// The writer keeps the copy a causal reader would get, as a delivery group.
	var g deliveryGroup // filled in place: a composite literal is built aside and copied
	g.from, g.firstSeq, g.lastSeq = n.id, seq, seq
	g.ob = n.sendObligation(label, true)
	g.one.op, g.one.label, g.one.seq, g.one.value = op, label, seq, value
	g.one.loc, g.one.sh = le, sh
	if g.ob != obNone && !n.fenceCovered() {
		// The write waits for all its process observed, the next causal read for it.
		g.need = n.stampLocked()
		for j := range g.need {
			g.need[j] = n.fence.get(j)
		}
		n.fence.raise(n.id, seq)
		n.absorbObservedLocked(g.need)
	}
	if n.logOn {
		n.writeLog = append(n.writeLog, WriteRecord{Loc: loc, Seq: seq})
	}
	if n.obs != nil {
		n.obs.RecordLocHash(obs.EvWriteIssue, uint8(label), 0, h, loc, seq, uint64(n.n-1), uint64(op))
	}
	// Send while holding the clock lock so per-sender sequence numbers hit
	// the fabric in order even under concurrent writers; fabric sends never
	// block.
	n.sendLocked(&u, g.ob)
	n.receiveLocked(&g)
	n.statWrites.Add(1)
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
}

// absorbObservedLocked merges into addr, before they settle, the matrices of
// the parked obMatrix groups the fence covers, moving the epoch once if any.
func (n *Node) absorbObservedLocked(fence []uint64) {
	epoch := n.addrEpoch
	for j := range n.pending {
		q := &n.pending[j]
		for i := 0; i < q.size && q.at(i).firstSeq <= fence[j]; i++ {
			if g := q.at(i); g.deps != nil {
				n.addr.Merge(g.deps)
				n.addrEpoch = epoch + 1
			}
		}
	}
}

// sendLocked routes one write to the location's readers: every peer without a
// scope or for a location the scope does not name, otherwise the registered
// readers, each list under the obligation its registration calls for. The
// write goes to the outbox when every write does (Batch.Enabled) or a hold is
// open, and straight to the transport otherwise. The stamp is taken under the
// same clock-lock hold as the write, for the immediate sends and the outbox
// alike: a batch must ship dependencies its covered writes were written under,
// never ones absorbed later. causal is the obligation of the causal readers'
// copies.
func (n *Node) sendLocked(u *Update, causal obligation) {
	ent := n.everyone
	if n.scopeTargets != nil {
		if e, ok := n.scopeTargets[u.Loc]; ok {
			ent = e
		}
	}
	boxed := false
	if n.outbox != nil {
		n.outboxMu.Lock()
		if boxed = n.batch.Enabled || n.holds.Load() != 0; boxed {
			n.heldReads.Store(0)
		} else {
			// A write outside any hold goes out at once, so whatever a hold
			// that has just closed on another strand left parked goes first:
			// each channel carries the sender's sequence numbers in order.
			n.flushAllLocked(flushSync)
			n.outboxMu.Unlock()
		}
	}
	// The PRAM-registered readers' copies go first, unstamped.
	if len(ent.elided) > 0 {
		n.emitLocked(ent.elided, u, n.sendObligation(u.Label, false), nil, boxed)
	}
	var snap Matrix
	if len(ent.causal) > 0 {
		if causal == obMatrix {
			// Bump the matrix for every causal destination before the
			// snapshot: transitive soundness needs each shipped matrix to
			// record this update at all of its destinations, so that one that
			// relays the value onward ships a matrix already covering it
			// everywhere else.
			for _, j := range ent.causal {
				n.addr[j][n.id] = u.Seq
			}
			snap = n.snapshotLocked() // shared across destinations; receivers only merge from it
		}
		n.emitLocked(ent.causal, u, causal, snap, boxed)
	}
	if boxed {
		n.outboxMu.Unlock()
	}
}

// matrixSlab is the pair of slabs n-by-n matrices are carved from: one of row
// headers, one of words, slab.Size matrices each. The collector frees a slab
// of snapshots, like one of timestamps, with the last message, parked group or
// outbox entry that points into it.
type matrixSlab struct {
	rows  slab.Of[[]uint64]
	words slab.Of[uint64]
}

// carve returns the next zeroed n-by-n matrix of the slabs (n > 0), each
// row's capacity cut to its length. The two slabs are refilled together.
func (s *matrixSlab) carve(n int) Matrix {
	if len(s.rows) < n || len(s.words) < n*n {
		s.rows, s.words = nil, nil
	}
	m, w := Matrix(s.rows.Run(n)), s.words.Run(n*n)
	clear(w)
	for i := range m {
		m[i] = w[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// stampLocked returns the next n words of the timestamp slab, for a batched
// obVector stamp, an unbatched one wider than tsInline, or a parked own
// write's fence. Once filled, the words are never written again (see Update).
func (n *Node) stampLocked() []uint64 { return n.tsSlab.Run(n.n) }

// snapshotLocked returns a copy of the address matrix for an obMatrix write,
// carved from the node's matrix slabs and, like a stamp, never written again.
func (n *Node) snapshotLocked() Matrix {
	m := n.mxSlab.carve(n.n)
	for i, row := range n.addr {
		copy(m[i], row)
	}
	return m
}

// sentLocked returns the copy of u that goes to the transport as holders
// destination messages, one reference each: an element of the issue path's
// pool, stamped with the dependency clock when stamp is set, and never written
// again while anyone holds it (see Update).
func (n *Node) sentLocked(u *Update, stamp bool, holders int) *Update {
	e := takeUpdate(&n.sentPool, u, int32(holders))
	if stamp {
		if n.n <= tsInline {
			e.TS = e.words[:n.n:n.n]
		} else {
			e.TS = n.stampLocked()
		}
		copy(e.TS, n.recvd)
	}
	return &e.Update
}

// emitLocked hands each destination its copy of a write: into the
// destination's pending batch when boxed (the caller holds outboxMu),
// otherwise straight to the transport as one shared update — in one Broadcast
// when it goes to every peer, which a wire transport encodes once. An obVector
// copy is stamped here; snap is the address-matrix snapshot of an obMatrix
// write; dests is not empty.
func (n *Node) emitLocked(dests []int, u *Update, ob obligation, snap Matrix, boxed bool) {
	for _, j := range dests {
		n.sent[j] = u.Seq
	}
	if boxed {
		if ob == obVector {
			u.TS = n.recvd // each destination's entry copies it (outboxAddLocked)
		}
		size := u.encodedSize() // the copies differ only in where they go
		for _, j := range dests {
			n.outboxAddLocked(j, u, ob, snap, size)
		}
		return
	}
	su := n.sentLocked(u, ob == obVector, len(dests))
	su.Deps = snap
	if len(dests) == n.n-1 {
		_ = n.fabric.Broadcast(n.id, KindUpdate, su, su.encodedSize())
	} else {
		size := su.encodedSize()
		for _, j := range dests {
			_ = n.fabric.Send(network.Message{
				From: n.id, To: j, Kind: KindUpdate,
				Payload: su, Size: size,
			})
		}
	}
	if n.obs != nil {
		// Unbatched sends leave the node here: one flush per destination with
		// a single-seq range, so the chain works without an outbox.
		for _, j := range dests {
			n.obs.Record(obs.EvFlush, uint8(u.Label), uint16(j), obs.NoLoc, u.Seq, u.Seq, 1)
		}
	}
}
