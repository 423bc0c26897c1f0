package network

import "sync"

// pair is the channel from one node to another: an unbounded FIFO the pump
// drains into the destination inbox, with the controls tests build
// adversarial schedules from, and the accounting of everything sent on it.
// Senders never block — the mixed-consistency memory model requires
// non-blocking writes (Section 3 of the paper), so the buffering is unbounded.
//
// A pair has no lock of its own: all of its state is guarded by the
// destination inbox's lock, the one lock a send takes whichever way the
// message goes.
type pair struct {
	in *Inbox
	// cond, on in.mu, wakes the pump.
	cond *sync.Cond
	// items[head:] are the queued messages. Pops advance head instead of
	// shifting, so pop stays O(1) even when a producer floods the channel;
	// the consumed prefix is compacted away once it dominates the slice.
	items  []Message
	head   int
	closed bool
	// held pauses delivery without affecting enqueues; used by the test
	// fabric to build adversarial delivery schedules.
	held bool
	// kinds is the channel's accounting, summed across channels by
	// Fabric.Stats.
	kinds KindCounts
}

func newPair(in *Inbox) *pair {
	return &pair{in: in, cond: sync.NewCond(&in.mu)}
}

// sendLocked accounts m and delivers it: straight into the inbox when bypass
// is allowed (the latency model is zero) and the channel is idle — nothing
// queued, delivery not held — and onto the queue for the pump otherwise. A
// closed channel accounts the message but drops it; the fabric is shutting
// down and nobody will receive it. The caller holds p.in.mu.
//
// The bypass exists because a pump handoff costs a goroutine wakeup per
// message, which dominates the zero-latency fabrics the perf harness
// measures. It keeps per-channel FIFO because, with a zero model, the pump
// moves a message from the queue into the inbox within one hold of the lock:
// a message is never on its way while the queue is empty.
func (p *pair) sendLocked(m Message, bypass bool) {
	p.kinds.Count(m.Kind, m.Size)
	switch {
	case p.closed:
	case bypass && !p.held && len(p.items) == p.head:
		p.in.pushLocked(m)
	default:
		p.items = append(p.items, m)
		p.cond.Signal()
	}
}

// popLocked is the pump's receive: it removes and returns the oldest message,
// waiting while the channel is empty or held. The second result is false once
// the channel is closed and drained. The caller holds p.in.mu.
func (p *pair) popLocked() (Message, bool) {
	for (len(p.items) == p.head || p.held) && !p.closed {
		p.cond.Wait()
	}
	if len(p.items) == p.head || (p.held && p.closed) {
		return Message{}, false
	}
	m := p.items[p.head]
	p.items[p.head] = Message{} // release payload references
	p.head++
	// Compact once the consumed prefix dominates, amortizing to O(1) per
	// pop while letting the backing array shrink after bursts.
	if p.head > 64 && p.head*2 >= len(p.items) {
		n := copy(p.items, p.items[p.head:])
		clear(p.items[n:])
		p.items = p.items[:n]
		p.head = 0
	}
	return m, true
}

// hold pauses delivery: the pump blocks even when messages are queued.
func (p *pair) hold() {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	p.held = true
}

// release resumes delivery.
func (p *pair) release() {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	p.held = false
	p.cond.Broadcast()
}

// close wakes the pump. Messages already pushed remain poppable unless the
// channel is held.
func (p *pair) close() {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
}

// len reports the number of queued messages.
func (p *pair) len() int {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	return len(p.items) - p.head
}

// KindCounts is one channel's accounting: a message and a byte total per kind
// sent on it. Both substrates keep one per channel, bumped under the lock the
// channel's sends already take, and sum them into Stats. A channel carries a
// handful of kinds in long runs of one, so the table is a slice scanned from
// the last hit; senders pass their kind constants, so the common comparison is
// between two headers of the same string data and ends at the pointer check.
// The zero value is an empty table.
type KindCounts struct {
	kinds []kindCount
	hit   int
}

// kindCount accumulates one kind's message and byte totals on one channel.
type kindCount struct {
	kind        string
	msgs, bytes uint64
}

// Count accounts one message of the given kind and modeled size.
func (k *KindCounts) Count(kind string, size int) {
	if k.hit == len(k.kinds) || k.kinds[k.hit].kind != kind {
		k.hit = 0
		for k.hit < len(k.kinds) && k.kinds[k.hit].kind != kind {
			k.hit++
		}
		if k.hit == len(k.kinds) {
			k.kinds = append(k.kinds, kindCount{kind: kind})
		}
	}
	c := &k.kinds[k.hit]
	c.msgs++
	c.bytes += uint64(size)
}

// AddTo adds the table to s as messages sent by node from. s's maps and
// PerNodeSent must be allocated.
func (k *KindCounts) AddTo(s *Stats, from int) {
	for _, c := range k.kinds {
		s.MessagesSent += c.msgs
		s.BytesSent += c.bytes
		s.PerNodeSent[from] += c.msgs
		s.PerKind[c.kind] += c.msgs
		s.PerKindBytes[c.kind] += c.bytes
	}
}
