package network

import (
	"sync"
	"testing"
	"time"
)

func newTestFabric(t *testing.T, n int) *Fabric {
	t.Helper()
	f, err := New(Config{Nodes: n})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	if _, err := New(Config{Nodes: -3}); err == nil {
		t.Fatal("expected error for negative nodes")
	}
}

func TestSendRecv(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Send(Message{From: 0, To: 1, Kind: "ping", Payload: 42}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, ok := f.Recv(1)
	if !ok {
		t.Fatal("Recv returned closed")
	}
	if m.From != 0 || m.To != 1 || m.Kind != "ping" || m.Payload.(int) != 42 {
		t.Errorf("unexpected message: %+v", m)
	}
}

func TestSendInvalidNodes(t *testing.T) {
	f := newTestFabric(t, 2)
	for _, m := range []Message{
		{From: -1, To: 0}, {From: 0, To: 2}, {From: 5, To: 1},
	} {
		if err := f.Send(m); err == nil {
			t.Errorf("Send(%+v) succeeded, want error", m)
		}
	}
}

func TestFIFOPerChannel(t *testing.T) {
	f := newTestFabric(t, 2)
	const n = 500
	for i := 0; i < n; i++ {
		if err := f.Send(Message{From: 0, To: 1, Kind: "seq", Payload: i}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		m, ok := f.Recv(1)
		if !ok {
			t.Fatal("fabric closed early")
		}
		if got := m.Payload.(int); got != i {
			t.Fatalf("message %d arrived out of order: got payload %d", i, got)
		}
	}
}

func TestFIFOPerSenderUnderConcurrency(t *testing.T) {
	f := newTestFabric(t, 3)
	const n = 200
	var wg sync.WaitGroup
	for _, from := range []int{0, 1} {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				_ = f.Send(Message{From: from, To: 2, Kind: "seq", Payload: i})
			}
		}()
	}
	wg.Wait()
	last := map[int]int{0: -1, 1: -1}
	for i := 0; i < 2*n; i++ {
		m, ok := f.Recv(2)
		if !ok {
			t.Fatal("fabric closed early")
		}
		seq := m.Payload.(int)
		if seq != last[m.From]+1 {
			t.Fatalf("sender %d: got seq %d after %d", m.From, seq, last[m.From])
		}
		last[m.From] = seq
	}
}

func TestBroadcast(t *testing.T) {
	f := newTestFabric(t, 4)
	if err := f.Broadcast(1, "update", "x=1", 16); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for _, node := range []int{0, 2, 3} {
		m, ok := f.Recv(node)
		if !ok {
			t.Fatalf("node %d: closed", node)
		}
		if m.From != 1 || m.Kind != "update" {
			t.Errorf("node %d: unexpected message %+v", node, m)
		}
	}
	// The sender must not receive its own broadcast.
	if n := f.Pending(1, 1); n != 0 {
		t.Errorf("self-channel has %d pending messages", n)
	}
}

func TestBroadcastInvalidSender(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Broadcast(7, "k", nil, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestHoldRelease(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Hold(0, 1); err != nil {
		t.Fatalf("Hold: %v", err)
	}
	_ = f.Send(Message{From: 0, To: 1, Kind: "k", Payload: 1})

	got := make(chan Message, 1)
	go func() {
		m, ok := f.Recv(1)
		if ok {
			got <- m
		}
	}()
	select {
	case <-got:
		t.Fatal("message delivered while channel held")
	case <-time.After(20 * time.Millisecond):
	}
	if err := f.Release(0, 1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	select {
	case m := <-got:
		if m.Payload.(int) != 1 {
			t.Errorf("unexpected payload %v", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered after release")
	}
}

func TestHoldPreservesFIFO(t *testing.T) {
	f := newTestFabric(t, 2)
	_ = f.Hold(0, 1)
	for i := 0; i < 10; i++ {
		_ = f.Send(Message{From: 0, To: 1, Payload: i})
	}
	_ = f.Release(0, 1)
	// Sends right after the release find the pump's queue still full: they
	// queue behind it instead of bypassing it.
	for i := 10; i < 20; i++ {
		_ = f.Send(Message{From: 0, To: 1, Payload: i})
	}
	for i := 0; i < 20; i++ {
		m, ok := f.Recv(1)
		if !ok || m.Payload.(int) != i {
			t.Fatalf("message %d out of order after hold: %+v ok=%v", i, m, ok)
		}
	}
}

func TestIsolateRejoin(t *testing.T) {
	f := newTestFabric(t, 3)
	if err := f.Isolate(1); err != nil {
		t.Fatalf("Isolate: %v", err)
	}
	_ = f.Send(Message{From: 0, To: 1, Payload: "in"})
	_ = f.Send(Message{From: 1, To: 2, Payload: "out"})
	// A send on a held channel has queued the message when it returns.
	if f.Pending(0, 1) != 1 || f.Pending(1, 2) != 1 {
		t.Fatalf("messages crossed an isolated node: in=%d out=%d",
			f.Pending(0, 1), f.Pending(1, 2))
	}
	if err := f.Rejoin(1); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if _, ok := f.Recv(1); !ok {
		t.Fatal("inbound message lost across isolate/rejoin")
	}
	if _, ok := f.Recv(2); !ok {
		t.Fatal("outbound message lost across isolate/rejoin")
	}
}

func TestStats(t *testing.T) {
	f := newTestFabric(t, 3)
	_ = f.Send(Message{From: 0, To: 1, Kind: "update", Size: 100})
	_ = f.Send(Message{From: 0, To: 2, Kind: "update", Size: 50})
	_ = f.Send(Message{From: 1, To: 0, Kind: "ack", Size: 8})
	s := f.Stats()
	if s.MessagesSent != 3 {
		t.Errorf("MessagesSent = %d, want 3", s.MessagesSent)
	}
	if s.BytesSent != 158 {
		t.Errorf("BytesSent = %d, want 158", s.BytesSent)
	}
	if s.PerNodeSent[0] != 2 || s.PerNodeSent[1] != 1 {
		t.Errorf("PerNodeSent = %v", s.PerNodeSent)
	}
	if s.PerKind["update"] != 2 || s.PerKind["ack"] != 1 {
		t.Errorf("PerKind = %v", s.PerKind)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestLatencyModelDelays(t *testing.T) {
	f, err := New(Config{Nodes: 2, Latency: LatencyModel{Fixed: 30 * time.Millisecond}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	start := time.Now()
	_ = f.Send(Message{From: 0, To: 1})
	if _, ok := f.Recv(1); !ok {
		t.Fatal("closed")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivered in %v, want >= ~30ms", elapsed)
	}
}

func TestLatencyJitterDeterministicSeed(t *testing.T) {
	// Jitter draws from a seeded source; just verify messages still arrive.
	f, err := New(Config{
		Nodes:   2,
		Latency: LatencyModel{Fixed: time.Millisecond, Jitter: 2 * time.Millisecond},
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	for i := 0; i < 5; i++ {
		_ = f.Send(Message{From: 0, To: 1, Payload: i})
	}
	for i := 0; i < 5; i++ {
		m, ok := f.Recv(1)
		if !ok || m.Payload.(int) != i {
			t.Fatalf("jittered channel broke FIFO: %+v ok=%v", m, ok)
		}
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	f := newTestFabric(t, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := f.Recv(1); !ok {
				return
			}
		}
	}()
	f.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("receiver not unblocked by Close")
	}
}

func TestCloseIdempotent(t *testing.T) {
	f := newTestFabric(t, 2)
	f.Close()
	f.Close()
}

func TestRecvInvalidNode(t *testing.T) {
	f := newTestFabric(t, 2)
	if _, ok := f.Recv(9); ok {
		t.Fatal("Recv on invalid node returned ok")
	}
}

func TestPendingInvalid(t *testing.T) {
	f := newTestFabric(t, 2)
	if f.Pending(-1, 0) != 0 || f.Pending(0, 9) != 0 {
		t.Fatal("Pending on invalid pair should be 0")
	}
}

func TestHoldReleaseInvalid(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Hold(0, 9); err == nil {
		t.Error("Hold invalid pair should error")
	}
	if err := f.Release(9, 0); err == nil {
		t.Error("Release invalid pair should error")
	}
	if err := f.Isolate(9); err == nil {
		t.Error("Isolate invalid node should error")
	}
	if err := f.Rejoin(-1); err == nil {
		t.Error("Rejoin invalid node should error")
	}
}

func TestSetDelayFactorSlowsChannel(t *testing.T) {
	f, err := New(Config{Nodes: 3, Latency: LatencyModel{Fixed: 2 * time.Millisecond}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if err := f.SetDelayFactor(0, 2, 25); err != nil {
		t.Fatalf("SetDelayFactor: %v", err)
	}
	start := time.Now()
	_ = f.Send(Message{From: 0, To: 1})
	_ = f.Send(Message{From: 0, To: 2})
	if _, ok := f.Recv(1); !ok {
		t.Fatal("closed")
	}
	fast := time.Since(start)
	if _, ok := f.Recv(2); !ok {
		t.Fatal("closed")
	}
	slow := time.Since(start)
	if slow < 5*fast {
		t.Errorf("slow channel not slower: fast=%v slow=%v", fast, slow)
	}
}

func TestSetDelayFactorSpeedsChannel(t *testing.T) {
	f, err := New(Config{Nodes: 2, Latency: LatencyModel{Fixed: 20 * time.Millisecond}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if err := f.SetDelayFactor(0, 1, 0.05); err != nil {
		t.Fatalf("SetDelayFactor: %v", err)
	}
	start := time.Now()
	_ = f.Send(Message{From: 0, To: 1})
	if _, ok := f.Recv(1); !ok {
		t.Fatal("closed")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Millisecond {
		t.Errorf("sped-up channel took %v", elapsed)
	}
}

func TestSetDelayFactorInvalid(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.SetDelayFactor(0, 9, 2); err == nil {
		t.Error("invalid pair must error")
	}
	if err := f.SetDelayFactor(-1, 0, 2); err == nil {
		t.Error("invalid pair must error")
	}
	// Tiny factors clamp rather than dropping to zero-forever.
	if err := f.SetDelayFactor(0, 1, 0); err != nil {
		t.Errorf("clamped factor errored: %v", err)
	}
}

func TestSetDelayFactorPreservesFIFO(t *testing.T) {
	f, err := New(Config{Nodes: 2, Latency: LatencyModel{Fixed: time.Millisecond}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	_ = f.SetDelayFactor(0, 1, 3)
	for i := 0; i < 5; i++ {
		_ = f.Send(Message{From: 0, To: 1, Payload: i})
	}
	for i := 0; i < 5; i++ {
		m, ok := f.Recv(1)
		if !ok || m.Payload.(int) != i {
			t.Fatalf("FIFO broken on slowed channel: %+v ok=%v", m, ok)
		}
	}
}

func BenchmarkFabricSendRecv(b *testing.B) {
	f, err := New(Config{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Send(Message{From: 0, To: 1, Kind: "bench", Payload: i})
		if _, ok := f.Recv(1); !ok {
			b.Fatal("closed")
		}
	}
}

func BenchmarkBroadcast8(b *testing.B) {
	f, err := New(Config{Nodes: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Broadcast(0, "bench", i, 64)
		for node := 1; node < 8; node++ {
			if _, ok := f.Recv(node); !ok {
				b.Fatal("closed")
			}
		}
	}
}
