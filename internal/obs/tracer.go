package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/loctab"
)

// slotWords is the per-slot layout: a begin stamp, five payload words, an
// end stamp, and one pad word so a slot is exactly one 64-byte cache line.
//
//	w0  begin stamp = event index + 1 (0 = never written)
//	w1  wall time (UnixNano)
//	w2  packed meta: type | label<<8 | peer<<16 | loc<<32
//	w3  seq
//	w4  A
//	w5  B
//	w6  end stamp (same value as w0 once the record is complete)
//	w7  pad
const slotWords = 8

type slot struct {
	w [slotWords]atomic.Uint64
}

// Tracer is a per-node, lock-free, fixed-capacity event ring. Record
// claims a slot with one atomic increment of the cursor and fills it with
// plain atomic stores; when the ring is full the oldest record is
// overwritten, so tracing never blocks and never allocates on the hot
// path. A nil *Tracer is valid and records nothing, which is how tracing
// stays compiled-in but off by default: call sites guard with a nil check
// that the branch predictor eats.
//
// Each slot is a seqlock: the writer publishes the begin stamp (event
// index + 1) before the payload and the end stamp after it, and Snapshot
// accepts a slot only when end == begin. A concurrent overwrite — even
// the pathological lapped-writer race where two writers a full ring apart
// interleave on one slot — leaves the stamps unequal at read time, so a
// torn payload is skipped rather than exported: every writer stores its
// begin stamp before touching the payload, and the reader loads the begin
// stamp last.
//
// Tracer acquires no lock while recording, so events may be recorded
// under any rung of the DSM's documented lock order (clockMu → shard.mu →
// outboxMu) without extending it.
type Tracer struct {
	node uint16
	mask uint64

	cursor atomic.Uint64
	slots  []slot

	// locs interns location names to dense indices: lookups go through the
	// insert-only table (no lock, no allocation); an insert — once per
	// distinct name — takes locsMu, which also guards names, the index-order
	// list Snapshot exports.
	locs   loctab.Table[uint32]
	locsMu sync.Mutex
	names  []string
}

// NewTracer returns a tracer for the given node with the given ring
// capacity, rounded up to a power of two (minimum 64).
func NewTracer(node, capacity int) *Tracer {
	c := 64
	for c < capacity {
		c <<= 1
	}
	return &Tracer{node: uint16(node), mask: uint64(c - 1), slots: make([]slot, c)}
}

// Capacity returns the ring capacity.
func (t *Tracer) Capacity() int { return len(t.slots) }

// locHash interns a location (or lock/barrier) name, given its loctab.Hash,
// and returns its index. The fast path — every name after its first use — is
// a table probe: lock-free and allocation-free.
func (t *Tracer) locHash(h uint32, name string) uint32 {
	if i := t.locs.Get(h, name); i != nil {
		return *i
	}
	t.locsMu.Lock()
	defer t.locsMu.Unlock()
	i, inserted := t.locs.Insert(h, name, uint32(len(t.names)))
	if inserted {
		t.names = append(t.names, name)
	}
	return *i
}

// Record appends one event. Safe for any number of concurrent callers;
// never blocks, never allocates. A nil receiver records nothing.
func (t *Tracer) Record(typ EventType, label uint8, peer uint16, loc uint32, seq, a, b uint64) {
	if t == nil {
		return
	}
	now := uint64(time.Now().UnixNano())
	i := t.cursor.Add(1) - 1
	s := &t.slots[i&t.mask]
	gen := i + 1
	s.w[0].Store(gen)
	s.w[1].Store(now)
	s.w[2].Store(uint64(typ) | uint64(label)<<8 | uint64(peer)<<16 | uint64(loc)<<32)
	s.w[3].Store(seq)
	s.w[4].Store(a)
	s.w[5].Store(b)
	s.w[6].Store(gen)
}

// RecordLoc is Record for call sites holding a location name rather than
// an interned index.
func (t *Tracer) RecordLoc(typ EventType, label uint8, peer uint16, loc string, seq, a, b uint64) {
	if t == nil {
		return
	}
	t.RecordLocHash(typ, label, peer, loctab.Hash(loc), loc, seq, a, b)
}

// RecordLocHash is RecordLoc for call sites that already hold the name's
// loctab.Hash — the dsm write and receive paths hash each location once for
// their own tables — so the name is not hashed a second time.
func (t *Tracer) RecordLocHash(typ EventType, label uint8, peer uint16, h uint32, loc string, seq, a, b uint64) {
	if t == nil {
		return
	}
	t.Record(typ, label, peer, t.locHash(h, loc), seq, a, b)
}

// Recorded returns the total number of events recorded so far.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// Dropped returns how many recorded events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if cur := t.cursor.Load(); cur > uint64(len(t.slots)) {
		return cur - uint64(len(t.slots))
	}
	return 0
}

// Snapshot drains the ring: every slot whose stamps agree is decoded, and
// the result is sorted into record order. Safe concurrently with Record —
// slots being overwritten mid-read are skipped, not torn. A nil tracer
// snapshots to nil.
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.locsMu.Lock()
	locs := append([]string(nil), t.names...)
	t.locsMu.Unlock()
	snap := &Snapshot{
		Node:     int(t.node),
		Capacity: len(t.slots),
		Recorded: t.cursor.Load(),
		Dropped:  t.Dropped(),
		Locs:     locs,
	}
	snap.Events = make([]Event, 0, len(t.slots))
	for j := range t.slots {
		s := &t.slots[j]
		end := s.w[6].Load()
		if end == 0 {
			continue
		}
		var w [5]uint64
		for k := 0; k < 5; k++ {
			w[k] = s.w[k+1].Load()
		}
		if s.w[0].Load() != end {
			continue // mid-overwrite: skip the torn slot
		}
		meta := w[1]
		snap.Events = append(snap.Events, Event{
			Index: end - 1,
			Time:  int64(w[0]),
			Type:  EventType(meta & 0xff),
			Label: uint8(meta >> 8),
			Peer:  uint16(meta >> 16),
			Loc:   uint32(meta >> 32),
			Seq:   w[2],
			A:     w[3],
			B:     w[4],
		})
	}
	sortEvents(snap.Events)
	return snap
}

// sortEvents orders by Index (insertion sort run over an almost-sorted
// ring read: the ring is index order rotated once, so this is O(n) in
// practice).
func sortEvents(ev []Event) {
	// Find the rotation point and rotate, then fix stragglers.
	rot := 0
	for i := 1; i < len(ev); i++ {
		if ev[i].Index < ev[i-1].Index {
			rot = i
			break
		}
	}
	if rot > 0 {
		tmp := make([]Event, 0, len(ev))
		tmp = append(tmp, ev[rot:]...)
		tmp = append(tmp, ev[:rot]...)
		copy(ev, tmp)
	}
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].Index < ev[j-1].Index; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}
