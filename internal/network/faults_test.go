package network

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFaultInjectionConcurrentSafety hammers every fault-injection control
// concurrently with live traffic. Run under -race this pins down the locking
// of Hold/Release/Isolate/Rejoin/SetDelayFactor against Send/Broadcast/Recv
// and the per-channel kind accounting.
func TestFaultInjectionConcurrentSafety(t *testing.T) {
	const n = 4
	f := newTestFabric(t, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Senders: every node broadcasts and point-sends under several kinds.
	var sent atomic.Uint64
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			kinds := []string{"a", "b", "c"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = f.Send(Message{From: id, To: (id + 1) % n, Kind: kinds[i%3], Size: i % 128})
				_ = f.Broadcast(id, "chaff", nil, 8)
				sent.Add(uint64(n)) // 1 send + n-1 broadcast copies
			}
		}(id)
	}
	// Receivers: drain inboxes so held channels are the only backlog. They
	// park in Recv, so they join a separate group unblocked by Close.
	var recvWG sync.WaitGroup
	var received atomic.Uint64
	for id := 0; id < n; id++ {
		recvWG.Add(1)
		go func(id int) {
			defer recvWG.Done()
			for {
				if _, ok := f.Recv(id); !ok {
					return
				}
				received.Add(1)
			}
		}(id)
	}
	// Fault injectors: isolate/rejoin nodes, hold/release and retime
	// individual channels, and snapshot stats, all concurrently.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				node := (w + i) % n
				from, to := i%n, (i+w+1)%n
				_ = f.Isolate(node)
				_ = f.Hold(from, to)
				_ = f.SetDelayFactor(from, to, float64(i%5)+0.5)
				_ = f.Stats()
				_ = f.Pending(from, to)
				_ = f.Rejoin(node)
				_ = f.Release(from, to)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait() // senders and injectors are done; receivers keep draining

	// Heal everything deterministically, then verify the fabric still
	// delivers on every channel: the accounting totals must be reachable.
	for node := 0; node < n; node++ {
		if err := f.Rejoin(node); err != nil {
			t.Fatalf("final rejoin %d: %v", node, err)
		}
		for other := 0; other < n; other++ {
			_ = f.Release(node, other)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < sent.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("after heal: received %d of %d sent", received.Load(), sent.Load())
		}
		time.Sleep(time.Millisecond)
	}
	f.Close() // unblock receivers parked in Recv
	recvWG.Wait()
	s := f.Stats()
	if s.MessagesSent < sent.Load() {
		t.Fatalf("stats lost sends: %d < %d", s.MessagesSent, sent.Load())
	}
	if s.PerKind["a"] == 0 || s.PerKind["chaff"] == 0 {
		t.Fatalf("per-kind accounting dropped labels: %v", s.PerKind)
	}
}

func TestIsolateRejoinInvalidNode(t *testing.T) {
	f := newTestFabric(t, 2)
	for _, node := range []int{-1, 2, 99} {
		if err := f.Isolate(node); err == nil {
			t.Fatalf("Isolate(%d) accepted", node)
		}
		if err := f.Rejoin(node); err == nil {
			t.Fatalf("Rejoin(%d) accepted", node)
		}
	}
}

// TestOperationsAfterClose verifies every fabric entry point is safe to call
// on a closed fabric: no panic, no deadlock, receivers see closed.
func TestOperationsAfterClose(t *testing.T) {
	f, err := New(Config{Nodes: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.Close()
	f.Close() // idempotent

	if err := f.Send(Message{From: 0, To: 1, Kind: "late"}); err != nil {
		t.Fatalf("Send after close errored: %v", err)
	}
	if err := f.Broadcast(0, "late", nil, 0); err != nil {
		t.Fatalf("Broadcast after close errored: %v", err)
	}
	if _, ok := f.Recv(1); ok {
		t.Fatal("Recv on closed fabric returned a message")
	}
	if err := f.Hold(0, 1); err != nil {
		t.Fatalf("Hold after close: %v", err)
	}
	if err := f.Release(0, 1); err != nil {
		t.Fatalf("Release after close: %v", err)
	}
	if err := f.Isolate(1); err != nil {
		t.Fatalf("Isolate after close: %v", err)
	}
	if err := f.Rejoin(1); err != nil {
		t.Fatalf("Rejoin after close: %v", err)
	}
	if err := f.SetDelayFactor(0, 1, 2); err != nil {
		t.Fatalf("SetDelayFactor after close: %v", err)
	}
	if got := f.Pending(0, 1); got == 0 {
		// Sends after close are accepted but dropped by the closed queue;
		// accounting still records them.
		if s := f.Stats(); s.MessagesSent == 0 {
			t.Fatal("accounting lost post-close sends")
		}
	}
}

// BenchmarkFabricAccountParallel stresses the send path from many senders at
// once, rotating kinds on every channel: accounting is part of the one lock
// hold a send takes on its pair, so senders to different pairs share nothing
// and the kind table's last-hit slot misses on every message.
func BenchmarkFabricAccountParallel(b *testing.B) {
	f, err := New(Config{Nodes: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	// Drain inboxes so queues do not grow unboundedly.
	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				if _, ok := f.Recv(id); !ok {
					return
				}
			}
		}(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		kinds := []string{"update", "lock-req", "bar-arrive"}
		i := 0
		for pb.Next() {
			_ = f.Send(Message{From: i % 8, To: (i + 1) % 8, Kind: kinds[i%3], Size: 64})
			i++
		}
	})
	b.StopTimer()
	f.Close()
	wg.Wait()
}
