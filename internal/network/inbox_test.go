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
// section), and the node's self-sends, which push under nothing. These tests
// drive an Inbox on its own, in that shape.

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

// TestInboxConnectionProducers: several connection readers and a self-sender
// push concurrently while the one consumer keeps running the queue dry. Every
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
				if c == conns { // the self-sender takes no lock
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
