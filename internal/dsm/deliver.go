package dsm

import (
	"cmp"
	"slices"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/obs"
)

// This file is the delivery core: the ordering obligation every update
// carries, the two functions that decide it (sendObligation when a copy is
// stamped, classify when a group is received), and the one receive path that
// honours it. Everything here runs under the clock lock.

// obligation is the set of ordering constraints an update's causal-view
// delivery must respect — the only thing the delivery code switches on.
//
//	obligation  stamp  sender order  cross-sender wait        causal view  fence anchor
//	obNone      –      yes           –                        no           no
//	obFIFO      –      yes           –                        yes          no
//	obVector    TS     yes           TS[k] <= causalApplied   yes          yes
//	obMatrix    Deps   yes           own row of Deps          yes          yes
//	own write   –      yes           fence at issue           as copies    as copies
//
// Sender order needs no metadata: the transport's channels are FIFO per
// ordered pair, and a group that is not delivered at once parks behind its
// sender's earlier parked groups, of which only the head is ever tried
// (receiveLocked, drainLocked). An own write (issue) waits, under its copies'
// obligation, for what its process observed. An obNone group reaches the PRAM
// view on arrival and never enters the causal view, but it settles in its
// sender's order like any other, so causalApplied names a prefix of the
// sender's stream under every configuration. A batch's obNone entries ride in
// the group the batch's other entries form. A group whose sequence numbers or
// metadata make no sense is held to obNone (deliveryGroup.malformed): it
// occupies its place in the sender's order, so the sender's later updates are
// not stranded behind it.
type obligation uint8

const (
	obNone obligation = iota
	obFIFO
	obVector
	obMatrix
)

// anchors reports whether updates under the obligation store the PRAM
// last-writer anchor that raises the observation fence: only updates whose
// cross-sender dependencies the causal view tracks can be waited on.
func (ob obligation) anchors() bool { return ob >= obVector }

// sendObligation is the send side of the table: the obligation stamped on the
// copy of a write to a location labeled label that goes to a reader
// registered as causal or not. Without a scope every process is a causal
// reader of everything; the writer is always one of its own writes.
func (n *Node) sendObligation(label history.Label, causalReader bool) obligation {
	switch {
	case n.pramOnly:
		return obNone
	case n.scopedCausal:
		if causalReader {
			return obMatrix
		}
		return obNone
	case label == history.LabelSlow:
		return obFIFO
	default:
		return obVector
	}
}

// classify is the receive side of the table: from the node's configuration
// and the metadata a group arrived with it fixes what the group waits for.
// label and ts are those of the group's latest update that carries a
// timestamp (LabelSlow and no timestamp if none does), deps the message's
// scoped-causal matrix.
func (n *Node) classify(g *deliveryGroup, label history.Label, ts []uint64, deps Matrix) {
	switch {
	case n.pramOnly, n.scopedCausal && deps == nil:
		g.ob = obNone
	case n.scopedCausal:
		if len(deps) == n.n {
			g.ob, g.need, g.deps = obMatrix, deps.Row(n.id), deps
		} else {
			g.holdMalformed()
		}
	case label == history.LabelSlow:
		g.ob = obFIFO
	case len(ts) == n.n:
		g.ob, g.need = obVector, ts
	default:
		g.holdMalformed()
	}
}

// entry is one update of a delivery group resolved against the value store.
type entry struct {
	op    UpdateOp
	label history.Label
	seq   uint64
	value int64
	// elided marks an obNone entry of a batch whose other entries form a
	// causal group: it takes part in the PRAM apply only.
	elided bool
	// loc is the location's entry in the node's table — name, hash and cell —
	// and nil for one the node cannot name; sh is its shard.
	loc *loctab.Entry[cell]
	sh  *shard
}

// resolveLocked fills e from u, an update from sender from, naming its
// location through the sender's reference table: a reference by index, and a
// definition — when define is set, which only the update's arrival does — by
// adding it to the table, the one time a location is hashed on this path and
// its cell inserted if it is the first the node hears of it. It reports
// false, leaving e without a cell, for a location the table cannot name: an
// ordinal the sender never defined here, or a definition the table refuses.
func (n *Node) resolveLocked(e *entry, from int, u *Update, define bool) bool {
	e.op, e.label, e.seq, e.value = u.Op, u.Label, u.Seq, u.Value
	e.elided = n.elided(u)
	t := &n.refs[from]
	e.loc, e.sh = nil, nil
	switch {
	case !u.Defines || !define:
		e.loc = t.find(u.Ordinal)
	case t.admits(u.Ordinal, u.Seq):
		e.loc = n.locFor(loctab.Hash(u.Loc), u.Loc)
		t.add(u.Ordinal, e.loc)
	}
	if e.loc == nil {
		return false
	}
	e.sh = n.shard(e.loc.Hash())
	return true
}

// refTable is one sender's reference table at this node: the locations the
// sender's updates have defined here, in ordinal order, so that an update
// referring to one by its ordinal resolves by index instead of by its name.
// It holds definitions only. A receiver that a scope addresses for some of a
// sender's locations and not others sees ordinals with holes, which cost
// nothing, and no ordinal, however large a hostile peer makes it, grows the
// table. A definition is admitted only in the order the sender gives ordinals
// out: above the last one the table holds, and below the defining update's
// Seq, since a sender's k-th location is first written by its k-th update at
// the earliest. The receive path fills and reads it in the sender's FIFO order,
// after the transport's dedup, under clockMu.
type refTable struct {
	defs []locRef // ascending ordinals
}

type locRef struct {
	ord uint32
	loc *loctab.Entry[cell]
}

// refChunk is the capacity of a reference table's first allocation; each later
// one is four times the last. A fresh Cholesky system names thousands of
// locations per sender, and its tables then cost two allocations each, not one
// per doubling.
const refChunk = 1024

// find returns the location the sender defined as ordinal ord, or nil.
func (t *refTable) find(ord uint32) *loctab.Entry[cell] {
	defs := t.defs
	if uint64(ord) < uint64(len(defs)) {
		if defs[ord].ord == ord {
			return defs[ord].loc // no holes below ord: the common case
		}
		// Ordinals ascend from 0, so defs[i].ord >= i: ord's definition, if
		// the table holds one, lies below index ord.
		defs = defs[:ord]
	}
	if i, ok := slices.BinarySearchFunc(defs, ord, func(r locRef, ord uint32) int {
		return cmp.Compare(r.ord, ord)
	}); ok {
		return defs[i].loc
	}
	return nil
}

// admits reports whether the table takes the definition of ordinal ord carried
// by the sender's update seq.
func (t *refTable) admits(ord uint32, seq uint64) bool {
	return uint64(ord) < seq && (len(t.defs) == 0 || ord > t.defs[len(t.defs)-1].ord)
}

// add appends an admitted definition.
func (t *refTable) add(ord uint32, loc *loctab.Entry[cell]) {
	if len(t.defs) == cap(t.defs) {
		t.defs = append(make([]locRef, 0, max(refChunk, 4*cap(t.defs))), t.defs...)
	}
	t.defs = append(t.defs, locRef{ord, loc})
}

// elided reports whether a received batch entry is obNone while its batch may
// carry causal entries. Only a scope elides some copies of a sender's stream
// and not others; elsewhere the flag is ignored (every entry of a broadcast
// batch takes its place in the sender's contiguous order).
func (n *Node) elided(u *Update) bool { return u.elided && n.scopedCausal }

// deliveryGroup is one causal-delivery unit: a single update or a whole
// received batch. A batch is applied to the causal view atomically once
// nothing of its sender's is parked ahead of it and its latest entry's
// dependencies are satisfied — delivering a contiguous per-sender run at the
// point its last element is deliverable is a legal causal schedule (delivery
// may be delayed, never reordered), and it is what lets coalesced batches keep
// the standard vector-clock condition. Under a scope the run may have holes,
// and a batch's elided entries reach the PRAM view alone (DESIGN.md §8). A
// group that settles when it arrives lives only on the receive path's stack;
// one that does not is parked in its sender's queue (Node.pending).
type deliveryGroup struct {
	from     int
	firstSeq uint64
	// lastSeq is the sequence number of the group's latest entry, elided or
	// not, which the outbox never coalesces away: the sender's entry of recvd
	// on arrival and of causalApplied once the group settles.
	lastSeq   uint64
	ob        obligation
	malformed bool
	// need is the cross-sender condition: need[k] <= causalApplied[k] for
	// every k but the sender. The timestamp of the latest entry that carries
	// one (it dominates the rest: one sender's clocks are monotone) for
	// obVector, this node's row of deps for obMatrix, the fence for an own
	// write, or nil.
	need []uint64
	// deps is a received obMatrix group's address-matrix snapshot, merged when
	// it settles. It is shared with the in-flight message and other groups —
	// merge from it, never mutate it.
	deps Matrix
	// batch holds a batch group's updates, and bat the received batch, whose
	// reference the group holds until it settles: need and deps may point
	// into it. When batch is nil the group is the single update one, and upd
	// the received update, held the same way.
	batch []Update
	bat   *UpdateBatch
	one   entry
	upd   *Update
	// arrival orders groups across senders (Node.arrivals at receive).
	arrival uint64
	// parkedAt is the UnixNano at which the group was parked with tracing
	// on (0 = never parked, or tracing off); it times the dep-wait trace
	// span and is unused otherwise.
	parkedAt int64
}

// applyRemote receives a single update from process from, the channel it
// arrived on, as a delivery group of one, resolving its location under the
// same clock-lock hold. u is shared with the sender's other destinations and
// is only read; the group releases this message's reference to it when it
// settles. An update whose own sender field names another process is held
// malformed in from's order.
func (n *Node) applyRemote(from int, u *Update) {
	g := deliveryGroup{from: from, firstSeq: u.Seq, lastSeq: u.Seq, upd: u}
	n.clockMu.Lock()
	named := n.resolveLocked(&g.one, from, u, true)
	if n.obs != nil {
		if named {
			n.obs.RecordLocHash(obs.EvRecv, uint8(u.Label), uint16(from), g.one.loc.Hash(), g.one.loc.Key(), u.Seq, 0, 0)
		} else {
			n.obs.Record(obs.EvRecv, uint8(u.Label), uint16(from), obs.NoLoc, u.Seq, 0, 0)
		}
	}
	n.classify(&g, u.Label, u.TS, u.Deps)
	if !named || u.From != from {
		g.holdMalformed()
	}
	n.receiveArrivedLocked(&g, 1)
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
}

// applyBatch receives a batch from process from, the channel it arrived on,
// as one delivery group. b is the sender's or the decoder's and is only read.
// A batch whose own sender field names another process is held malformed in
// from's order.
func (n *Node) applyBatch(from int, b *UpdateBatch) {
	if len(b.Updates) == 0 {
		b.release()
		return
	}
	// Entries can sit anywhere (coalescing replaces in place), so finding
	// the latest of each kind is a scan: the latest entry overall, where the
	// group settles, and the latest causal one that carries a timestamp, which
	// dominates the group's dependencies. A LabelSlow entry carries none. The
	// same scan enters the batch's definitions into the sender's reference
	// table, in the order they were sent.
	g := deliveryGroup{from: from, firstSeq: b.FirstSeq, batch: b.Updates, bat: b}
	entries := len(b.Updates)
	var stamped *Update
	var e entry
	named, inRun := true, true
	n.clockMu.Lock()
	for i := range b.Updates {
		u := &b.Updates[i]
		named = n.resolveLocked(&e, from, u, true) && named
		inRun = inRun && u.Seq >= b.FirstSeq
		g.lastSeq = max(g.lastSeq, u.Seq)
		if !n.elided(u) && u.Label != history.LabelSlow && (stamped == nil || u.Seq > stamped.Seq) {
			stamped = u
		}
	}
	if n.obs != nil {
		n.obs.Record(obs.EvRecvBatch, uint8(b.Updates[0].Label), uint16(from),
			obs.NoLoc, b.FirstSeq, g.lastSeq, uint64(len(b.Updates)))
	}
	// Under a scope a batch whose entries are all elided carries no matrix:
	// classify finds it obNone.
	if stamped == nil {
		n.classify(&g, history.LabelSlow, nil, b.Deps)
	} else {
		n.classify(&g, stamped.Label, stamped.TS, b.Deps)
	}
	if !inRun || b.From != from {
		// The run is FirstSeq through the latest entry; an entry before it
		// is one the sender never put there.
		g.holdMalformed()
	}
	if !named {
		// A batch holding an entry the node cannot name applies none: a later
		// pass, after this scan's definitions, might name that entry, or name a
		// refused definition's ordinal after another location.
		b.release()
		g.batch, g.bat = nil, nil
		g.holdMalformed()
	}
	n.receiveArrivedLocked(&g, entries)
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
}

// holdMalformed marks a group whose sequence numbers, metadata or locations do
// not make sense: it keeps its place in its sender's order and settles there,
// but its values never reach the causal view (and a group the node cannot name
// reaches neither view).
func (g *deliveryGroup) holdMalformed() {
	g.ob, g.need, g.deps, g.malformed = obNone, nil, nil, true
}

// receiveArrivedLocked takes a group of entries updates that has just arrived
// into the views. The channel is FIFO, so its first Seq lies above the
// sender's last one here; without a scope, where every update of the sender's
// reaches this node, it is the next one. A group that fails is malformed, and
// settles at its run's end — its latest entry — at most and the sender's last
// Seq at least: no vector moves backwards.
func (n *Node) receiveArrivedLocked(g *deliveryGroup, entries int) {
	last := n.recvd[g.from]
	if g.firstSeq <= last || n.scopeTargets == nil && g.firstSeq != last+1 {
		g.holdMalformed()
	}
	g.lastSeq = max(g.lastSeq, last)
	if g.malformed {
		n.statMalformed.Add(uint64(entries))
	}
	n.recvd[g.from] = g.lastSeq
	n.receiveLocked(g)
}

// receiveLocked is the one way into both views, own writes (issue) included: to
// the PRAM view at once, to the causal view when the obligation is met — in the
// same pass if it already is and nothing of its sender's is parked ahead, the
// common case, which touches no queue.
func (n *Node) receiveLocked(g *deliveryGroup) {
	n.arrivals++
	g.arrival = n.arrivals
	inPlace := n.pending[g.from].size == 0 && n.deliverableLocked(g)
	n.applyGroupLocked(g, true, inPlace)
	if !inPlace {
		// Nothing else can have become deliverable — the clocks did not
		// move — so no drain follows.
		n.parkLocked(g)
		return
	}
	n.settleLocked(g)
	if n.parked.Load() != 0 {
		n.drainLocked()
	}
}

// applyGroupLocked stores the group's values: into the PRAM view when the
// group arrives (pram), into the causal view when its obligation is met
// (causal) — both in one pass for a group deliverable on arrival. An obNone
// group never enters the causal view.
func (n *Node) applyGroupLocked(g *deliveryGroup, pram, causal bool) {
	if g.batch == nil {
		n.applyEntryLocked(g, &g.one, pram, causal)
		return
	}
	var e entry
	for i := range g.batch {
		n.resolveLocked(&e, g.from, &g.batch[i], false)
		n.applyEntryLocked(g, &e, pram, causal)
	}
}

func (n *Node) applyEntryLocked(g *deliveryGroup, e *entry, pram, causal bool) {
	if e.loc == nil {
		return // a location its sender never named here: nothing to apply
	}
	c := e.loc.Value()
	if pram {
		// The anchor is stored before the value (see cell.last).
		if g.ob.anchors() && !e.elided {
			c.last.Store(packLast(g.from, e.seq))
		}
		applyCell(&c.pram, e.op, e.value)
	}
	if causal && g.ob != obNone && !e.elided {
		applyCell(&c.causal, e.op, e.value)
	}
	e.sh.wake()
	// An own write's PRAM apply is traced as its EvWriteIssue.
	if pram && n.obs != nil && g.from != n.id {
		n.obs.RecordLocHash(obs.EvApply, uint8(e.label), uint16(g.from), e.loc.Hash(), e.loc.Key(), e.seq, 0, 0)
	}
}

// deliverableLocked is the cross-sender half of the causal-broadcast
// condition, generalized to a contiguous per-sender run: every cross-sender
// dependency of the run's latest entry is already applied. The sender half is
// not checked here because it cannot fail: the caller only asks about a group
// nothing of its sender's is parked ahead of, and the channel delivered the
// sender's earlier groups first.
func (n *Node) deliverableLocked(g *deliveryGroup) bool {
	for k := 0; k < n.n && k < len(g.need); k++ {
		if k != g.from && g.need[k] > n.causalApplied.get(k) {
			return false
		}
	}
	return true
}

// settleLocked records that a group has taken its place in its sender's
// order: it advances the sender's entry of the causal clock, absorbs a matrix
// group's dependency knowledge, releases the batch or the single update it
// holds, and emits the trace events of a parked group's
// wait and of a release into the causal view. The clock advance comes after
// all the group's values are stored, so a lock-free causal read that sees the
// advanced clock sees the values.
func (n *Node) settleLocked(g *deliveryGroup) {
	n.causalApplied.set(g.from, g.lastSeq)
	if g.deps != nil {
		// The epoch bump tells the outbox that pending matrix batches now
		// predate part of the matrix. An own write ships no matrix to merge.
		n.addr.Merge(g.deps)
		n.addrEpoch++
	}
	if g.bat != nil {
		g.bat.release()
	}
	if g.upd != nil {
		g.upd.release()
	}
	if n.obs != nil {
		if g.parkedAt != 0 {
			parked := time.Now().UnixNano() - g.parkedAt
			n.obs.Record(obs.EvDepWaitEnd, 0, uint16(g.from), obs.NoLoc,
				g.firstSeq, uint64(parked), 0)
		}
		if g.ob != obNone {
			n.obs.Record(obs.EvGroupRelease, 0, uint16(g.from), obs.NoLoc,
				g.firstSeq, g.lastSeq, uint64(max(len(g.batch), 1)))
		}
	}
}

// parkLocked queues a group whose obligation is not met yet behind its
// sender's earlier parked groups.
func (n *Node) parkLocked(g *deliveryGroup) {
	if n.obs != nil {
		g.parkedAt = time.Now().UnixNano()
		n.obs.Record(obs.EvDepWaitBegin, 0, uint16(g.from), obs.NoLoc, g.firstSeq, 0, 0)
	}
	n.pending[g.from].push(g)
	if p := n.parked.Add(1); p > n.parkedMax.Load() {
		n.parkedMax.Store(p)
	}
}

// drainLocked releases parked delivery groups to the causal view in causal
// order until none is deliverable. It looks only at queue heads — a group
// behind its sender's head waits for it, which is all that keeps a sender's
// groups in order — and visits them the way a scan of one arrival-ordered list
// would: repeated passes, each taking the live heads in arrival order and
// dropping a sender from the pass once its head is found blocked. Release
// order is therefore a function of the arrival order alone, not of how the
// groups are stored. A pass that releases nothing ends the drain, so a call
// with nothing deliverable costs one condition check per sender.
func (n *Node) drainLocked() {
	for progressed := true; progressed; {
		progressed = false
		for j := range n.pending {
			n.pending[j].blocked = n.pending[j].size == 0
		}
		for {
			var q *senderQueue
			for j := range n.pending {
				if c := &n.pending[j]; !c.blocked &&
					(q == nil || c.at(0).arrival < q.at(0).arrival) {
					q = c
				}
			}
			if q == nil {
				break
			}
			g := q.at(0)
			if !n.deliverableLocked(g) {
				q.blocked = true
				continue
			}
			n.applyGroupLocked(g, false, true)
			n.settleLocked(g)
			q.pop()
			n.parked.Add(^uint64(0))
			q.blocked = q.size == 0
			progressed = true
		}
	}
}

// senderQueue holds one sender's parked delivery groups in arrival order: a
// ring that doubles when full and keeps its backing across drains, so a
// steady backlog parks and releases without allocating.
type senderQueue struct {
	buf  []deliveryGroup // len is zero or a power of two
	head int
	size int
	// blocked is drain-pass scratch: the queue's head was found
	// undeliverable (or the queue is empty) in the current pass.
	blocked bool
}

// at returns the i-th oldest parked group (at(0) is the head), for i < size.
func (q *senderQueue) at(i int) *deliveryGroup { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *senderQueue) push(g *deliveryGroup) {
	if q.size == len(q.buf) {
		grown := make([]deliveryGroup, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = *g
	q.size++
}

// pop drops the oldest parked group, clearing its slot so the ring pins no
// released timestamps, matrices, batch slices or updates.
func (q *senderQueue) pop() {
	q.buf[q.head] = deliveryGroup{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
}
