package network

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tcp transport delivers into the same Inbox the fabric does, with its
// own producers: one goroutine per inbound connection, all pushing under the
// transport's receive lock (the sequence test and the push are one critical
// section). These tests drive an Inbox on its own, in that shape, beside a
// producer that pushes under nothing.

// exhausted reports whether the consumer has handed out everything it took,
// so that its next Pop takes the lock for what was queued since. Only the
// consumer may call it.
func (b *Inbox) exhausted() bool {
	return b.out == nil || b.next == b.out.n && b.out.next == nil
}

// consumeWithin runs consume — the inbox's one consumer — on its own
// goroutine and fails the test if it has not returned within d, so a lost
// wake-up is a failure and not a hang.
func consumeWithin(t *testing.T, d time.Duration, consume func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		consume()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("consumer still blocked after %v", d)
	}
}

// TestInboxConnectionProducers: several connection readers and a producer
// outside their lock push concurrently while the one consumer keeps running the queue dry. Every
// message arrives, each producer's in its own order.
func TestInboxConnectionProducers(t *testing.T) {
	const conns, per = 4, 3000
	in := NewInbox()
	var rmu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c <= conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := Message{From: c, Kind: "seq", Payload: i}
				if c == conns { // this producer takes no lock
					in.Push(m)
					continue
				}
				rmu.Lock()
				in.Push(m)
				rmu.Unlock()
			}
		}(c)
	}
	consumeWithin(t, 30*time.Second, func() {
		next := make([]int, conns+1)
		for got := 0; got < (conns+1)*per; got++ {
			m, ok := in.Pop()
			if !ok {
				t.Errorf("inbox reported closed after %d messages", got)
				return
			}
			if seq := m.Payload.(int); seq != next[m.From] {
				t.Errorf("producer %d: message %d arrived after %d", m.From, seq, next[m.From]-1)
				return
			}
			next[m.From]++
		}
	})
	wg.Wait()
	in.Close()
	consumeWithin(t, 30*time.Second, func() {
		if m, ok := in.Pop(); ok {
			t.Errorf("extra delivery: %+v", m)
		}
	})
}

// TestInboxFIFOAcrossChunks: bursts of one message short of a chunk, exactly a
// chunk and one message into the next (and the same around two chunks), each
// pushed by several producers into an inbox the consumer has run dry. Settled,
// the consumer waits for the whole burst before it pops: the burst starts a
// fresh chunk, so it meets the chunk boundary exactly as its length says.
// Racing, the consumer starts as the producers do and takes the queue while
// they still push. Either way every message arrives, each producer's in
// its own order, and the consumer is left with nothing.
func TestInboxFIFOAcrossChunks(t *testing.T) {
	const producers = 3
	l := int(inboxChunkLen)
	sizes := []int{l - 1, l, l + 1, 2*l - 1, 2 * l, 2*l + 1, l - 1}
	for _, racing := range []bool{false, true} {
		in := NewInbox()
		next := make([]int, producers)
		pushed := make([]int, producers)
		for _, size := range sizes {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				share := size / producers
				if p < size%producers {
					share++
				}
				wg.Add(1)
				go func(p, from, n int) {
					defer wg.Done()
					for i := from; i < from+n; i++ {
						in.Push(Message{From: p, Kind: "seq", Payload: i})
					}
				}(p, pushed[p], share)
				pushed[p] += share
			}
			if !racing {
				wg.Wait()
			}
			consumeWithin(t, 30*time.Second, func() {
				for got := 0; got < size; got++ {
					m, ok := in.Pop()
					if !ok {
						t.Errorf("inbox reported closed after %d of %d messages", got, size)
						return
					}
					if seq := m.Payload.(int); seq != next[m.From] {
						t.Errorf("burst of %d: producer %d: message %d arrived after %d", size, m.From, seq, next[m.From]-1)
						return
					}
					next[m.From]++
				}
			})
			wg.Wait()
			if t.Failed() {
				return
			}
			if !in.exhausted() {
				t.Fatalf("burst of %d (racing=%v): the consumer holds messages nobody pushed", size, racing)
			}
		}
		in.Close()
		if m, ok := in.Pop(); ok {
			t.Fatalf("extra delivery: %+v", m)
		}
	}
}

// TestInboxPushPopAllocFree: a warm inbox queues and hands out a burst of up
// to a chunk — one message, as a receiver that keeps up sees them, or a full
// chunk — without allocating: the consumer gives the used-up chunk back, and
// the producers fill it again. (Longer bursts borrow chunks from a sync.Pool,
// which the garbage collector, and the race detector, may empty.)
func TestInboxPushPopAllocFree(t *testing.T) {
	payload := new(int)
	for _, burst := range []int{1, int(inboxChunkLen)} {
		in := NewInbox()
		cycle := func() {
			for i := 0; i < burst; i++ {
				in.Push(Message{Kind: "k", Payload: payload})
			}
			for i := 0; i < burst; i++ {
				if _, ok := in.Pop(); !ok {
					t.Fatal("inbox reported closed")
				}
			}
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("warm inbox, burst of %d: %.2f allocs, want 0", burst, allocs)
		}
	}
}

// TestDrainedBacklogKeepsBoundedChunks: once a backlog of many chunks has
// been drained, the inbox keeps inboxFreeMax of them for its producers — not
// the backlog's peak; the rest are the pool's, which the garbage collector may
// empty.
func TestDrainedBacklogKeepsBoundedChunks(t *testing.T) {
	in := NewInbox()
	backlog := 64 * int(inboxChunkLen)
	for i := 0; i < backlog; i++ {
		in.Push(Message{Kind: "k"})
	}
	for i := 0; i < backlog; i++ {
		if _, ok := in.Pop(); !ok {
			t.Fatal("inbox reported closed")
		}
	}
	in.Push(Message{Kind: "k"}) // the next Pop recycles the last used-up chunk
	if _, ok := in.Pop(); !ok {
		t.Fatal("inbox reported closed")
	}
	in.mu.Lock()
	kept := 0
	for c := in.free; c != nil; c = c.next {
		if c.n != 0 {
			t.Errorf("a free chunk still counts %d messages", c.n)
		}
		kept++
	}
	in.mu.Unlock()
	if kept != inboxFreeMax {
		t.Errorf("after a backlog of %d chunks the inbox keeps %d, want %d", backlog/int(inboxChunkLen), kept, inboxFreeMax)
	}
}

// TestInboxCloseMidBurst: Close lands while every producer is still pushing.
// Whatever was pushed before it is still handed out — each producer's
// messages as an unbroken prefix of what it pushed, at least as long as what
// it had finished pushing when Close was called — then Pop reports closed,
// and the pushes that lost the race are dropped without blocking anyone.
func TestInboxCloseMidBurst(t *testing.T) {
	const conns = 4
	in := NewInbox()
	var rmu sync.Mutex
	var stop atomic.Bool
	pushed := make([]atomic.Int64, conns+1)
	var wg sync.WaitGroup
	for c := 0; c <= conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				m := Message{From: c, Kind: "seq", Payload: i}
				if c == conns {
					in.Push(m)
				} else {
					rmu.Lock()
					in.Push(m)
					rmu.Unlock()
				}
				pushed[c].Store(int64(i + 1))
			}
		}(c)
	}

	next := make([]int, conns+1)
	// take checks one delivery; false ends the consumer.
	take := func(m Message) bool {
		if seq := m.Payload.(int); seq != next[m.From] {
			t.Errorf("producer %d: message %d arrived after %d", m.From, seq, next[m.From]-1)
			return false
		}
		next[m.From]++
		return true
	}
	// Let the burst get going, consuming all the while.
	consumeWithin(t, 30*time.Second, func() {
		for got := 0; got < 2000; got++ {
			m, ok := in.Pop()
			if !ok {
				t.Error("inbox reported closed before Close")
				return
			}
			if !take(m) {
				return
			}
		}
	})
	floor := make([]int64, conns+1)
	for c := range floor {
		floor[c] = pushed[c].Load()
	}
	in.Close()
	stop.Store(true)
	wg.Wait() // no producer is stuck behind the closed inbox

	consumeWithin(t, 30*time.Second, func() {
		for {
			m, ok := in.Pop()
			if !ok || !take(m) {
				return
			}
		}
	})
	for c := range next {
		if int64(next[c]) < floor[c] || int64(next[c]) > pushed[c].Load() {
			t.Errorf("producer %d: %d delivered, %d pushed before Close was called, %d pushed in all",
				c, next[c], floor[c], pushed[c].Load())
		}
	}
	in.Push(Message{Kind: "late"})
	consumeWithin(t, 30*time.Second, func() {
		if m, ok := in.Pop(); ok {
			t.Errorf("a push after Close was delivered: %+v", m)
		}
	})
}
