package network

import "sync"

// pair is the channel from one node to another: an unbounded FIFO the pump
// drains into the destination inbox, with the controls tests build
// adversarial schedules from, and the accounting of everything sent on it.
// Senders never block — the mixed-consistency memory model requires
// non-blocking writes (Section 3 of the paper), so the buffering is unbounded.
type pair struct {
	mu   sync.Mutex
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
	// inflight is true while the pump holds a popped message it has not yet
	// pushed to the destination inbox. The sender-side bypass (tryBypass)
	// must not overtake such a message, or per-channel FIFO would break.
	inflight bool
	// kinds is the channel's accounting: one counter per message kind sent on
	// it, bumped under mu — the lock every send already takes — and summed
	// across channels by Fabric.Stats. A channel carries a handful of kinds in
	// long runs of one, so the table is a slice scanned from the last hit.
	kinds []kindCount
	hit   int
}

// kindCount accumulates one kind's message and byte totals on one channel.
type kindCount struct {
	kind        string
	msgs, bytes uint64
}

func newPair() *pair {
	p := &pair{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// countLocked accounts one message. Senders pass their kind constants, so the
// common comparison is between two headers of the same string data and ends
// at the pointer check.
func (p *pair) countLocked(kind string, size int) {
	if p.hit == len(p.kinds) || p.kinds[p.hit].kind != kind {
		p.hit = 0
		for p.hit < len(p.kinds) && p.kinds[p.hit].kind != kind {
			p.hit++
		}
		if p.hit == len(p.kinds) {
			p.kinds = append(p.kinds, kindCount{kind: kind})
		}
	}
	c := &p.kinds[p.hit]
	c.msgs++
	c.bytes += uint64(size)
}

// push accounts and appends m. A closed channel still accounts the message
// but drops it; the fabric is shutting down and nobody will receive it.
func (p *pair) push(m Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.countLocked(m.Kind, m.Size)
	if p.closed {
		return
	}
	p.items = append(p.items, m)
	p.cond.Signal()
}

// popInflight is the pump's receive: it removes and returns the oldest
// message, blocking while the channel is empty or held, and marks the message
// as in flight, disabling the sender-side bypass until the pump acknowledges
// inbox delivery via delivered. The second result is false once the channel
// is closed and drained.
func (p *pair) popInflight() (Message, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	p.inflight = true
	return m, true
}

// delivered clears the in-flight mark set by popInflight.
func (p *pair) delivered() {
	p.mu.Lock()
	p.inflight = false
	p.mu.Unlock()
}

// tryBypass accounts m and delivers it straight into in when the channel is
// completely idle: nothing queued, nothing in the pump's hands, delivery not
// held. The caller has already established that the latency model is zero.
// Holding p.mu across the inbox push serializes bypassing senders with each
// other and with the pump, so per-channel FIFO order is exactly the order in
// which senders won p.mu — the same guarantee the queue itself provides. The
// bypass exists because a pump handoff costs a goroutine wakeup per message,
// which dominates the zero-latency fabrics the perf harness measures. When it
// reports false — the channel is busy, held or closed — the message is neither
// accounted nor delivered: the caller pushes it.
func (p *pair) tryBypass(m Message, in *Inbox) bool {
	p.mu.Lock()
	if p.closed || p.held || p.inflight || len(p.items) != p.head {
		p.mu.Unlock()
		return false
	}
	p.countLocked(m.Kind, m.Size)
	in.Push(m)
	p.mu.Unlock()
	return true
}

// hold pauses delivery: the pump blocks even when messages are queued.
func (p *pair) hold() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held = true
}

// release resumes delivery.
func (p *pair) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held = false
	p.cond.Broadcast()
}

// close wakes the pump. Messages already pushed remain poppable unless the
// channel is held.
func (p *pair) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
}

// len reports the number of queued messages.
func (p *pair) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items) - p.head
}
