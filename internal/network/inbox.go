package network

import (
	"sync"
	"unsafe"
)

// inboxChunkLen is how many messages one inbox chunk holds: as many as fit,
// beside the chunk's two other words, in 8 KiB (146 on 64-bit, filling the
// size class exactly). A chunk is a small allocation, and an inbox that only
// ever sees a handful of messages at a time holds two of them in use.
const inboxChunkLen = (8<<10 - 2*unsafe.Sizeof(uintptr(0))) / unsafe.Sizeof(Message{})

// inboxChunk is one fixed segment of an inbox's queue: msgs[:n] are queued
// messages, next the chunk queued after it.
type inboxChunk struct {
	msgs [inboxChunkLen]Message
	n    int
	next *inboxChunk
}

// inboxFreeMax bounds the used-up chunks an inbox keeps for its producers.
const inboxFreeMax = 2

// chunkPool holds used-up chunks beyond what the inboxes keep, for any inbox
// — a fresh one too, such as the next fabric a test or a benchmark epoch
// builds — until the garbage collector empties it.
var chunkPool sync.Pool

// Inbox collects the messages delivered to one node, from every channel into
// it, for the node's receiver. Both substrates use it: the simulated fabric's
// pumps and bypassing senders push into it, and so do the tcp transport's
// connection readers. It is a burst queue: producers append
// under the lock, and the consumer takes everything queued in one lock hold
// and then hands the messages out with no lock at all, so a receiver that
// falls behind pays one lock round per burst instead of one per message.
//
// The queue is a list of fixed chunks, so growing it never copies a message
// and never makes a large allocation. The consumer clears each chunk as soon
// as it has handed out its last message — a consumed burst pins no payload —
// and gives it back for the producers to fill again: queue memory follows the
// backlog, not its historical peak.
//
// The lock-free half is what makes Pop single-consumer: out and next belong
// to whichever goroutine is receiving for the node, and two goroutines may not
// receive for the same node concurrently (Transport.Recv).
type Inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// head .. tail is what producers have queued since the consumer last
	// took the list; both are nil when it is empty.
	head, tail *inboxChunk
	// free is a list of nfree cleared chunks kept for the producers, linked
	// through next: at most inboxFreeMax, so that while bursts fit in a chunk
	// — the consumer's, the producers' and the one given back — no chunk
	// leaves the inbox. The consumer gives any more to chunkPool.
	free   *inboxChunk
	nfree  int
	closed bool

	// out is the list the consumer last took, out.msgs[next:out.n] the rest
	// of its first chunk.
	out  *inboxChunk
	next int
}

// NewInbox returns an empty, open inbox.
func NewInbox() *Inbox {
	b := &Inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Push appends m. Pushing to a closed inbox silently drops the message;
// nobody will receive it.
func (b *Inbox) Push(m Message) {
	b.mu.Lock()
	b.pushLocked(m)
	b.mu.Unlock()
}

// pushLocked is Push for a caller that holds b.mu. The consumer sleeps only
// on an empty queue, so only the push that makes it non-empty has anyone to
// wake.
func (b *Inbox) pushLocked(m Message) {
	if b.closed {
		return
	}
	t := b.tail
	if t == nil || t.n == len(t.msgs) {
		c := b.chunkLocked()
		if t == nil {
			b.head = c
			b.cond.Signal()
		} else {
			t.next = c
		}
		b.tail, t = c, c
	}
	t.msgs[t.n] = m
	t.n++
}

// chunkLocked returns an empty chunk: a used-up one if the inbox or the pool
// has one, a new one otherwise.
func (b *Inbox) chunkLocked() *inboxChunk {
	if c := b.free; c != nil {
		b.free, c.next = c.next, nil
		b.nfree--
		return c
	}
	if c, ok := chunkPool.Get().(*inboxChunk); ok {
		return c
	}
	return new(inboxChunk)
}

// recycleLocked takes back a cleared chunk.
func (b *Inbox) recycleLocked(c *inboxChunk) {
	c.n, c.next = 0, nil
	if b.closed || b.nfree == inboxFreeMax {
		chunkPool.Put(c)
		return
	}
	c.next, b.free = b.free, c
	b.nfree++
}

// Pop returns the oldest message, blocking while there is none. The second
// result is false once the inbox is closed and everything pushed before the
// close has been handed out.
func (b *Inbox) Pop() (Message, bool) {
	c := b.out
	if c == nil || b.next == c.n {
		if c = b.advance(); c == nil {
			return Message{}, false
		}
	}
	m := c.msgs[b.next]
	b.next++
	return m, true
}

// advance gives back the used-up chunk and moves on to the next one the
// consumer took, or — once it has handed out everything it took — takes the
// whole list queued since, waiting while there is none. It returns nil once
// the inbox is closed and drained. The chunk is cleared outside the lock.
func (b *Inbox) advance() *inboxChunk {
	used := b.out
	if used != nil {
		clear(used.msgs[:used.n])
	}
	b.mu.Lock()
	if used != nil {
		b.out = used.next
		b.recycleLocked(used)
	}
	if b.out == nil {
		for b.head == nil && !b.closed {
			b.cond.Wait()
		}
		b.out, b.head, b.tail = b.head, nil, nil
	}
	b.mu.Unlock()
	b.next = 0
	return b.out
}

// Close wakes a blocked receiver. Messages already pushed remain poppable.
// The inbox's free chunks go to the pool for the next inbox to use.
func (b *Inbox) Close() {
	b.mu.Lock()
	b.closed = true
	for c := b.free; c != nil; {
		next := c.next
		c.next = nil
		chunkPool.Put(c)
		c = next
	}
	b.free, b.nfree = nil, 0
	b.cond.Broadcast()
	b.mu.Unlock()
}
