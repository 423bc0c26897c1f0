package network

import "sync"

// Inbox collects the messages delivered to one node, from every channel into
// it, for the node's receiver. Both substrates use it: the simulated fabric's
// pumps and bypassing senders push into it, and so do the tcp transport's
// connection readers and its self-sends. It is a burst queue: producers append
// under the lock, and the consumer takes everything queued in one lock hold
// and then hands the messages out of its private buffer with no lock at all,
// so a receiver that falls behind pays one lock round per burst instead of one
// per message.
//
// The lock-free half is what makes Pop single-consumer: drained and next
// belong to whichever goroutine is receiving for the node, and two goroutines
// may not receive for the same node concurrently (Transport.Recv).
type Inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queued []Message
	closed bool

	// drained[next:] is the rest of the burst the consumer last took.
	drained []Message
	next    int
}

// NewInbox returns an empty, open inbox.
func NewInbox() *Inbox {
	b := &Inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Push appends m. The consumer sleeps only on an empty queue, so only the
// push that makes it non-empty has anyone to wake. Pushing to a closed inbox
// silently drops the message; nobody will receive it.
func (b *Inbox) Push(m Message) {
	b.mu.Lock()
	if !b.closed {
		b.queued = append(b.queued, m)
		if len(b.queued) == 1 {
			b.cond.Signal()
		}
	}
	b.mu.Unlock()
}

// Pop returns the oldest message, blocking while there is none. The second
// result is false once the inbox is closed and everything pushed before the
// close has been handed out.
func (b *Inbox) Pop() (Message, bool) {
	if b.next == len(b.drained) && !b.refill() {
		return Message{}, false
	}
	m := b.drained[b.next]
	b.next++
	return m, true
}

// refill swaps the consumed burst for everything queued since. The consumed
// buffer becomes the producers' next one, so it is cleared first — outside the
// lock — or it would pin the payloads already handed out.
func (b *Inbox) refill() bool {
	clear(b.drained)
	b.mu.Lock()
	for len(b.queued) == 0 && !b.closed {
		b.cond.Wait()
	}
	b.drained, b.queued = b.queued, b.drained[:0]
	b.mu.Unlock()
	b.next = 0
	return len(b.drained) > 0
}

// Close wakes a blocked receiver. Messages already pushed remain poppable.
func (b *Inbox) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
