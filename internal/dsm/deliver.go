package dsm

import (
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/obs"
	"mixedmem/internal/vclock"
)

// This file is the delivery core: the ordering obligation every update
// carries, the two functions that decide it (sendObligation when a copy is
// stamped, classify when a group is received), and the one receive path that
// honours it. Everything here runs under the clock lock.

// obligation is the set of ordering constraints an update's causal-view
// delivery must respect — the only thing the delivery code switches on.
//
//	obligation  stamp  sender order  cross-sender wait        causal view  fence anchor
//	obNone      –      –             –                        no           no
//	obFIFO      –      yes           –                        yes          no
//	obVector    TS     yes           TS[k] <= causalApplied   yes          yes
//	obMatrix    Deps   yes           own row of Deps          yes          yes
//	own write   –      yes           fence at issue           as copies    as copies
//
// Sender order needs no metadata: the transport's channels are FIFO per
// ordered pair, and a group that is not delivered at once parks behind its
// sender's earlier parked groups, of which only the head is ever tried
// (receiveLocked, drainLocked). An own write (issue) waits, under its copies'
// obligation, for what its process observed. obNone updates are settled by
// their PRAM apply, obNone entries of a batch included: the batch's other
// entries form its group. A group whose metadata has the wrong dimension is
// held to obFIFO but kept out of the causal view (deliveryGroup.malformed): it
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
func (n *Node) classify(g *deliveryGroup, label history.Label, ts vclock.VC, deps vclock.Matrix) {
	switch {
	case n.pramOnly, n.scopedCausal && deps == nil:
		g.ob = obNone
	case n.scopedCausal:
		if deps.Len() == n.n {
			g.ob, g.need, g.deps = obMatrix, deps.Row(n.id), deps
		} else {
			g.ob, g.malformed = obFIFO, true
		}
	case label == history.LabelSlow:
		g.ob = obFIFO
	case ts.Len() == n.n:
		g.ob, g.need = obVector, ts
	default:
		g.ob, g.malformed = obFIFO, true
	}
}

// entry is one update of a delivery group resolved against the value store.
type entry struct {
	op    UpdateOp
	label history.Label
	seq   uint64
	value int64
	loc   string
	hash  uint32 // loctab.Hash(loc)
	// elided marks an obNone entry of a batch whose other entries form a
	// causal group: it takes part in the PRAM apply only.
	elided bool
	c      *cell
	sh     *shard
}

// resolve fills e from u, hashing the location once and inserting its cell if
// this is the first the node hears of it.
func (n *Node) resolve(e *entry, u *Update) {
	h := loctab.Hash(u.Loc)
	e.op, e.label, e.seq, e.value, e.loc, e.hash = u.Op, u.Label, u.Seq, u.Value, u.Loc, h
	e.elided = n.elided(u)
	e.sh = n.shard(h)
	e.c = n.cellFor(h, u.Loc)
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
// the standard vector-clock condition. Under a scope the run may have holes:
// the batch's elided entries are settled by their PRAM apply and never enter
// the causal view, and the group is the rest (DESIGN.md §8). A group that is
// deliverable when it arrives lives only on the receive path's stack; one that
// is not is parked in its sender's queue (Node.pending).
type deliveryGroup struct {
	from     int
	firstSeq uint64
	// lastSeq is the sequence number of the group's latest entry, elided or
	// not: the sender's causal clock entry once the group settles.
	lastSeq uint64
	// count is the number of covered updates, including coalesced-away
	// ones; it feeds recvd on arrival. holes of them are a batch's obNone
	// entries, settled — added to causalRecvd — on arrival; the other
	// count-holes are added when the group settles.
	count     uint64
	holes     uint64
	ob        obligation
	malformed bool
	// need is the cross-sender condition: need[k] <= causalApplied[k] for
	// every k but the sender. The timestamp of the latest entry that carries
	// one (it dominates the rest: one sender's clocks are monotone) for
	// obVector, this node's row of deps for obMatrix, the fence for an own
	// write, or nil.
	need vclock.VC
	// deps is a received obMatrix group's address-matrix snapshot, merged when
	// it settles. It is shared with the in-flight message and other groups —
	// merge from it, never mutate it.
	deps vclock.Matrix
	// batch holds a batch group's updates; when it is nil the group is the
	// single update one.
	batch []Update
	one   entry
	// arrival orders groups across senders (Node.arrivals at receive).
	arrival uint64
	// parkedAt is the UnixNano at which the group was parked with tracing
	// on (0 = never parked, or tracing off); it times the dep-wait trace
	// span and is unused otherwise.
	parkedAt int64
}

// applyRemote receives a single update as a delivery group of one. The
// location is hashed and its cell resolved before the clock lock is taken. u
// is shared with the sender's other destinations and is only read.
func (n *Node) applyRemote(u *Update) {
	g := deliveryGroup{from: u.From, firstSeq: u.Seq, lastSeq: u.Seq, count: 1}
	n.resolve(&g.one, u)
	if n.obs != nil {
		n.obs.RecordLocHash(obs.EvRecv, uint8(u.Label), uint16(u.From), g.one.hash, u.Loc, u.Seq, 0, 0)
	}
	n.classify(&g, u.Label, u.TS, u.Deps)
	n.receive(&g)
}

// applyBatch receives a batch as one delivery group. FirstSeq and Count cover
// the coalesced-away updates too, so the counting protocols account every
// original write. b is the sender's or the decoder's and is only read.
func (n *Node) applyBatch(b *UpdateBatch) {
	if len(b.Updates) == 0 {
		return
	}
	// Entries can sit anywhere (coalescing replaces in place), so finding
	// the latest of each kind is a scan: the latest entry overall, where the
	// group settles, and the latest causal one that carries a timestamp, which
	// dominates the group's dependencies. A LabelSlow entry carries none.
	g := deliveryGroup{from: b.From, firstSeq: b.FirstSeq, count: b.Count, batch: b.Updates}
	var latest, stamped *Update
	for i := range b.Updates {
		u := &b.Updates[i]
		if latest == nil || u.Seq > latest.Seq {
			latest = u
		}
		if n.elided(u) {
			g.holes++
		} else if u.Label != history.LabelSlow && (stamped == nil || u.Seq > stamped.Seq) {
			stamped = u
		}
	}
	g.lastSeq = latest.Seq
	if n.obs != nil {
		n.obs.Record(obs.EvRecvBatch, uint8(b.Updates[0].Label), uint16(b.From),
			obs.NoLoc, b.FirstSeq, latest.Seq, b.Count)
	}
	switch {
	case g.holes == uint64(len(b.Updates)):
		g.ob = obNone
	case stamped == nil:
		n.classify(&g, history.LabelSlow, nil, b.Deps)
	default:
		n.classify(&g, stamped.Label, stamped.TS, b.Deps)
	}
	if n.scopeTargets == nil && latest.Seq-b.FirstSeq >= b.Count {
		// Without a scope every write reaches every peer, so a batch's entries
		// lie in the run [FirstSeq, FirstSeq+Count) it counts (under one, the
		// run has holes and only Count means anything). A batch that breaks
		// this is malformed, and settles at the end of its run, not past it.
		g.lastSeq, g.malformed = b.FirstSeq+b.Count-1, true
		if g.ob != obNone {
			g.ob, g.need, g.deps = obFIFO, nil, nil
		}
	}
	n.receive(&g)
}

// receive applies a received group under one clock-lock hold.
func (n *Node) receive(g *deliveryGroup) {
	n.clockMu.Lock()
	if g.malformed {
		n.statMalformed.Add(g.count - g.holes)
	}
	n.recvd[g.from] += g.count
	n.receiveLocked(g)
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
}

// receiveLocked is the one way into both views, own writes (issue) included: to
// the PRAM view at once, to the causal view when the obligation is met — in the
// same pass if it already is and nothing of its sender's is parked ahead, the
// common case, which touches no queue. What the PRAM apply settles — an obNone
// group, a batch's obNone entries — is counted settled here.
func (n *Node) receiveLocked(g *deliveryGroup) {
	n.arrivals++
	g.arrival = n.arrivals
	inPlace := g.ob != obNone && n.pending[g.from].size == 0 && n.deliverableLocked(g)
	n.applyGroupLocked(g, true, inPlace)
	if g.ob == obNone {
		n.causalRecvd[g.from] += g.count
		putUpdateSlice(g.batch)
		return
	}
	n.causalRecvd[g.from] += g.holes
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
// (causal) — both in one pass for a group deliverable on arrival.
func (n *Node) applyGroupLocked(g *deliveryGroup, pram, causal bool) {
	if g.batch == nil {
		n.applyEntryLocked(g, &g.one, pram, causal)
		return
	}
	var e entry
	for i := range g.batch {
		n.resolve(&e, &g.batch[i])
		n.applyEntryLocked(g, &e, pram, causal)
	}
}

func (n *Node) applyEntryLocked(g *deliveryGroup, e *entry, pram, causal bool) {
	if pram {
		// The anchor is stored before the value (see cell.last).
		if g.ob.anchors() && !e.elided {
			e.c.last.Store(packLast(g.from, e.seq))
		}
		applyCell(&e.c.pram, e.op, e.value)
	}
	if causal && !g.malformed && !e.elided {
		applyCell(&e.c.causal, e.op, e.value)
	}
	e.sh.wake()
	// An own write's PRAM apply is traced as its EvWriteIssue.
	if pram && n.obs != nil && g.from != n.id {
		n.obs.RecordLocHash(obs.EvApply, uint8(e.label), uint16(g.from), e.hash, e.loc, e.seq, 0, 0)
	}
}

// deliverableLocked is the cross-sender half of the causal-broadcast
// condition, generalized to a contiguous per-sender run: every cross-sender
// dependency of the run's latest entry is already applied. The sender half is
// not checked here because it cannot fail: the caller only asks about a group
// nothing of its sender's is parked ahead of, and the channel delivered the
// sender's earlier groups first.
func (n *Node) deliverableLocked(g *deliveryGroup) bool {
	for k := 0; k < n.n && k < g.need.Len(); k++ {
		if k != g.from && g.need.Get(k) > n.causalApplied.get(k) {
			return false
		}
	}
	return true
}

// settleLocked records that a group has taken its place in the causal view:
// it advances the sender's entry of the causal clock and the settled count,
// absorbs a matrix group's dependency knowledge, returns a batch's entry
// slice to the pool, and emits the release trace events. The clock advance
// comes after all the group's values are stored, so a lock-free causal read
// that sees the advanced clock sees the values.
func (n *Node) settleLocked(g *deliveryGroup) {
	n.causalApplied.set(g.from, g.lastSeq)
	if g.deps != nil {
		// The epoch bump tells the outbox that pending matrix batches now
		// predate part of the matrix. An own write ships no matrix to merge.
		n.addr.Merge(g.deps)
		n.addrEpoch++
	}
	n.causalRecvd[g.from] += g.count - g.holes
	putUpdateSlice(g.batch)
	if n.obs != nil {
		if g.parkedAt != 0 {
			parked := time.Now().UnixNano() - g.parkedAt
			n.obs.Record(obs.EvDepWaitEnd, 0, uint16(g.from), obs.NoLoc,
				g.firstSeq, uint64(parked), 0)
		}
		n.obs.Record(obs.EvGroupRelease, 0, uint16(g.from), obs.NoLoc,
			g.firstSeq, g.lastSeq, g.count)
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
// released timestamps, matrices, or batch slices.
func (q *senderQueue) pop() {
	q.buf[q.head] = deliveryGroup{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
}
