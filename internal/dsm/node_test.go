package dsm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/check"
	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
)

// cluster builds a fabric and n nodes, wiring cleanup.
func cluster(t *testing.T, n int, trace *history.Builder) []*Node {
	t.Helper()
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i], err = NewNode(Config{ID: i, N: n, Transport: f, Trace: trace})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// eventually polls cond, yielding the processor between tries, until it holds
// or the deadline passes.
func eventually(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// awaitRegistered waits until an await on loc has registered with the
// location's shard, so a write issued next is one the await blocks for.
func awaitRegistered(t *testing.T, n *Node, loc string) {
	t.Helper()
	sh := n.shard(loctab.Hash(loc))
	eventually(t, func() bool { return sh.waiters.Load() > 0 }, "the await on "+loc+" never registered")
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{ID: 0, N: 1}); err == nil {
		t.Error("nil fabric must error")
	}
	f, _ := network.New(network.Config{Nodes: 2})
	defer f.Close()
	if _, err := NewNode(Config{ID: 5, N: 2, Transport: f}); err == nil {
		t.Error("out-of-range id must error")
	}
	if _, err := NewNode(Config{ID: 0, N: 3, Transport: f}); err == nil {
		t.Error("n mismatch must error")
	}
}

func TestLocalWriteReadBothViews(t *testing.T) {
	nodes := cluster(t, 2, nil)
	nodes[0].Write("x", 7)
	if got := nodes[0].ReadPRAM("x"); got != 7 {
		t.Errorf("own PRAM read = %d, want 7", got)
	}
	if got := nodes[0].ReadCausal("x"); got != 7 {
		t.Errorf("own causal read = %d, want 7", got)
	}
}

func TestPropagationToOtherReplicas(t *testing.T) {
	nodes := cluster(t, 3, nil)
	nodes[0].Write("x", 42)
	eventually(t, func() bool { return nodes[2].ReadPRAM("x") == 42 },
		"PRAM view never received the update")
	eventually(t, func() bool { return nodes[2].ReadCausal("x") == 42 },
		"causal view never applied the update")
}

func TestCausalViewGatesOnDependencies(t *testing.T) {
	// Node 0 writes x; node 1 reads it (after receipt) and writes y.
	// Node 2's channel from 0 is held, so y's dependency on x is unmet:
	// the causal view must not show y while the PRAM view does.
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 3, Transport: f})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	_ = f.Hold(0, 2)
	nodes[0].Write("x", 1)
	eventually(t, func() bool { return nodes[1].ReadCausal("x") == 1 },
		"node 1 never saw x")
	nodes[1].Write("y", 2)

	// Inspect the views through Snapshot: a ReadPRAM would raise the
	// observation fence and a subsequent ReadCausal would then (correctly)
	// block until the held dependency arrives.
	eventually(t, func() bool { return nodes[2].Snapshot(false)["y"] == 2 },
		"node 2 PRAM view never received y")
	if got := nodes[2].Snapshot(true)["y"]; got != 0 {
		t.Fatalf("causal view applied y before its dependency x: got %d", got)
	}
	if got := nodes[2].Snapshot(true)["x"]; got != 0 {
		t.Fatalf("x should still be held: got %d", got)
	}

	_ = f.Release(0, 2)
	eventually(t, func() bool { return nodes[2].ReadCausal("y") == 2 },
		"causal view never drained after release")
	if got := nodes[2].ReadCausal("x"); got != 1 {
		t.Fatalf("causal view missing x after drain: got %d", got)
	}
	// Now that the PRAM view has been observed, a causal read must not be
	// older than the observation (Definition 2's reads-from edge).
	if got := nodes[2].ReadPRAM("y"); got != 2 {
		t.Fatalf("pram y = %d", got)
	}
	if got := nodes[2].ReadCausal("y"); got != 2 {
		t.Fatalf("causal y after pram observation = %d, want 2", got)
	}
}

func TestPRAMViewAppliesHeldUpdatesIndependently(t *testing.T) {
	// The PRAM view shows y=2 even while x's update is held: exactly the
	// staleness PRAM permits and causal forbids.
	f, _ := network.New(network.Config{Nodes: 3})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 3, Transport: f})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	_ = f.Hold(0, 2)
	nodes[0].Write("x", 1)
	eventually(t, func() bool { return nodes[1].ReadPRAM("x") == 1 }, "n1 missed x")
	nodes[1].Write("y", 2)
	eventually(t, func() bool { return nodes[2].ReadPRAM("y") == 2 }, "n2 missed y")
	if got := nodes[2].ReadPRAM("x"); got != 0 {
		t.Fatalf("held update leaked: x=%d", got)
	}
	_ = f.Release(0, 2)
}

func TestObservationFenceBlocksCausalRead(t *testing.T) {
	// p0 writes x then y; node 2's channel from p0 is held after x... here:
	// p1 writes d (dep of p0? no). Direct scenario: p2 PRAM-reads a value
	// whose causal application is still gated; its next causal read must
	// block until the causal view catches up, not return older state.
	f, _ := network.New(network.Config{Nodes: 3})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 3, Transport: f})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	// y (from node 1) causally depends on x (from node 0); node 2 receives
	// y but not x.
	_ = f.Hold(0, 2)
	nodes[0].Write("x", 1)
	eventually(t, func() bool { return nodes[1].ReadCausal("x") == 1 }, "n1 missed x")
	nodes[1].Write("y", 2)
	eventually(t, func() bool { return nodes[2].Snapshot(false)["y"] == 2 }, "n2 missed y")

	// Observe y through the PRAM view: the fence now covers w1(y)2.
	if got := nodes[2].ReadPRAM("y"); got != 2 {
		t.Fatalf("pram y = %d", got)
	}
	// A causal read (of any location) must now wait for the causal view to
	// apply w1(y)2, which is gated on the held x.
	got := make(chan int64, 1)
	go func() { got <- nodes[2].ReadCausal("x") }()
	select {
	case v := <-got:
		t.Fatalf("causal read returned %d before the fence was satisfied", v)
	case <-time.After(30 * time.Millisecond):
	}
	_ = f.Release(0, 2)
	select {
	case v := <-got:
		if v != 1 {
			t.Fatalf("causal x after fence = %d, want 1", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("causal read never unblocked")
	}
}

func TestAwaitPRAMRaisesFence(t *testing.T) {
	// After AwaitPRAM fires, a causal read must observe the matched
	// write's causal context.
	f, _ := network.New(network.Config{Nodes: 3})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 3, Transport: f})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	_ = f.Hold(0, 2)
	nodes[0].Write("x", 1)
	eventually(t, func() bool { return nodes[1].ReadCausal("x") == 1 }, "n1 missed x")
	nodes[1].Write("go", 7)

	done := make(chan int64, 1)
	go func() {
		nodes[2].AwaitPRAM("go", 7)
		done <- nodes[2].ReadCausal("x")
	}()
	select {
	case v := <-done:
		t.Fatalf("causal read after AwaitPRAM returned %d early", v)
	case <-time.After(30 * time.Millisecond):
	}
	_ = f.Release(0, 2)
	select {
	case v := <-done:
		if v != 1 {
			t.Fatalf("causal x = %d, want 1", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never unblocked")
	}
}

func TestFIFOApplyPerSender(t *testing.T) {
	nodes := cluster(t, 2, nil)
	const k = 100
	for i := 1; i <= k; i++ {
		nodes[0].Write("x", int64(i))
	}
	eventually(t, func() bool { return nodes[1].ReadPRAM("x") == k },
		"final value never arrived")
	if got := nodes[1].ReadCausal("x"); got != k {
		t.Errorf("causal final = %d, want %d", got, k)
	}
}

func TestAwait(t *testing.T) {
	nodes := cluster(t, 2, nil)
	done := make(chan int64, 1)
	go func() {
		nodes[1].AwaitPRAM("flag", 3)
		done <- nodes[1].ReadPRAM("data")
	}()
	nodes[0].Write("data", 99)
	nodes[0].Write("flag", 3)
	select {
	case got := <-done:
		if got != 99 {
			t.Errorf("data after await = %d, want 99", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("await never fired")
	}
}

func TestAwaitAlreadySatisfied(t *testing.T) {
	nodes := cluster(t, 1, nil)
	nodes[0].Write("flag", 1)
	nodes[0].AwaitPRAM("flag", 1) // must return immediately
}

func TestCounterAddCommutes(t *testing.T) {
	nodes := cluster(t, 3, nil)
	var wg sync.WaitGroup
	for _, nd := range nodes {
		nd := nd
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				nd.Add("count", -1)
			}
		}()
	}
	wg.Wait()
	for i, nd := range nodes {
		nd := nd
		eventually(t, func() bool { return nd.ReadPRAM("count") == -150 },
			"counter never converged on node "+string(rune('0'+i)))
		if got := nd.ReadCausal("count"); got != -150 {
			t.Errorf("node %d causal counter = %d, want -150", i, got)
		}
	}
}

func TestSentReceivedCounts(t *testing.T) {
	nodes := cluster(t, 3, nil)
	nodes[0].Write("a", 1)
	nodes[0].Write("b", 2)
	sent := nodes[0].SentCounts(nil)
	if sent[1] != 2 || sent[2] != 2 || sent[0] != 0 {
		t.Errorf("sent = %v, want [0 2 2]", sent)
	}
	eventually(t, func() bool { return nodes[1].ReceivedCounts(nil)[0] == 2 },
		"receive counts never advanced")
	rc := nodes[0].ReceivedCounts(nil)
	if rc[0] != 2 {
		t.Errorf("own component = %d, want 2", rc[0])
	}
}

func TestWaitReceived(t *testing.T) {
	nodes := cluster(t, 2, nil)
	done := make(chan struct{})
	go func() {
		nodes[1].WaitReceived([]uint64{2, 0})
		close(done)
	}()
	nodes[0].Write("a", 1)
	select {
	case <-done:
		t.Fatal("WaitReceived returned before both updates")
	case <-time.After(20 * time.Millisecond):
	}
	nodes[0].Write("b", 2)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitReceived never returned")
	}
}

func TestWaitCausalApplied(t *testing.T) {
	nodes := cluster(t, 2, nil)
	nodes[0].Write("a", 1)
	nodes[1].WaitCausalApplied([]uint64{1, 0})
	if got := nodes[1].ReadCausal("a"); got != 1 {
		t.Errorf("causal read after wait = %d, want 1", got)
	}
}

func TestInvalidateBlocksRead(t *testing.T) {
	f, _ := network.New(network.Config{Nodes: 2})
	n0, _ := NewNode(Config{ID: 0, N: 2, Transport: f})
	n1, _ := NewNode(Config{ID: 1, N: 2, Transport: f})
	defer func() { f.Close(); n0.Close(); n1.Close() }()

	_ = f.Hold(0, 1)
	n0.Write("x", 5) // update 1 from node 0, held
	n1.Invalidate("x", 0, 1)

	got := make(chan int64, 1)
	go func() { got <- n1.ReadPRAM("x") }()
	select {
	case v := <-got:
		t.Fatalf("read of invalidated location returned %d early", v)
	case <-time.After(20 * time.Millisecond):
	}
	_ = f.Release(0, 1)
	select {
	case v := <-got:
		if v != 5 {
			t.Errorf("read = %d, want 5", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read never unblocked")
	}
}

func TestInvalidateCausalRead(t *testing.T) {
	nodes := cluster(t, 2, nil)
	nodes[0].Write("x", 9)
	nodes[1].Invalidate("x", 0, 1)
	if got := nodes[1].ReadCausal("x"); got != 9 {
		t.Errorf("causal read = %d, want 9", got)
	}
}

func TestStats(t *testing.T) {
	nodes := cluster(t, 2, nil)
	nodes[0].Write("x", 1)
	nodes[0].ReadPRAM("x")
	nodes[0].ReadCausal("x")
	nodes[0].AwaitPRAM("x", 1)
	s := nodes[0].Stats()
	if s.Writes != 1 || s.PRAMReads != 1 || s.CausalReads != 1 || s.Awaits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSnapshot(t *testing.T) {
	nodes := cluster(t, 1, nil)
	nodes[0].Write("x", 1)
	nodes[0].Write("y", 2)
	snap := nodes[0].Snapshot(false)
	if snap["x"] != 1 || snap["y"] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	snap["x"] = 99
	if nodes[0].ReadPRAM("x") != 1 {
		t.Error("snapshot aliases internal state")
	}
	csnap := nodes[0].Snapshot(true)
	if csnap["y"] != 2 {
		t.Errorf("causal snapshot = %v", csnap)
	}
}

func TestHandlerReceivesProtocolMessages(t *testing.T) {
	f, _ := network.New(network.Config{Nodes: 2})
	got := make(chan network.Message, 1)
	n0, _ := NewNode(Config{ID: 0, N: 2, Transport: f})
	n1, _ := NewNode(Config{ID: 1, N: 2, Transport: f, Handler: func(m network.Message) {
		got <- m
	}})
	defer func() { f.Close(); n0.Close(); n1.Close() }()
	_ = f.Send(network.Message{From: 0, To: 1, Kind: "lock-req", Payload: "l"})
	select {
	case m := <-got:
		if m.Kind != "lock-req" {
			t.Errorf("kind = %q", m.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never invoked")
	}
}

func TestTraceRecordsMixedConsistentHistory(t *testing.T) {
	// Run a producer/consumer program on the runtime, record it, and
	// verify the checker accepts the trace.
	trace := history.NewBuilder(2)
	nodes := cluster(t, 2, trace)
	nodes[0].Write("data", 7)
	nodes[0].Write("flag", 1)
	nodes[1].AwaitCausal("flag", 1)
	v := nodes[1].ReadPRAM("data")
	if v != 7 {
		t.Fatalf("consumer read %d, want 7", v)
	}
	nodes[1].ReadCausal("data")

	a, err := trace.History().Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if viol := check.Mixed(a); len(viol) != 0 {
		t.Fatalf("recorded history not mixed consistent: %v", viol)
	}
}

func TestConcurrentWritersConvergePRAM(t *testing.T) {
	// Concurrent writers to distinct locations: all replicas converge.
	nodes := cluster(t, 4, nil)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		i, nd := i, nd
		wg.Add(1)
		go func() {
			defer wg.Done()
			loc := "w" + string(rune('0'+i))
			for v := 1; v <= 20; v++ {
				nd.Write(loc, int64(v))
			}
		}()
	}
	wg.Wait()
	for _, nd := range nodes {
		nd := nd
		eventually(t, func() bool {
			for i := 0; i < 4; i++ {
				if nd.ReadCausal("w"+string(rune('0'+i))) != 20 {
					return false
				}
			}
			return true
		}, "replicas never converged")
	}
}

func TestScopeValidation(t *testing.T) {
	cases := []struct {
		name     string
		scope    *ScopeMap
		pramOnly bool
		wantErr  bool
	}{
		{
			name:  "reader out of range",
			scope: &ScopeMap{Readers: map[string][]int{"x": {0, 2}}},

			wantErr: true,
		},
		{
			name:  "negative reader",
			scope: &ScopeMap{Readers: map[string][]int{"x": {-1}}},

			wantErr: true,
		},
		{
			name: "causal reader out of range",
			scope: &ScopeMap{
				Readers:       map[string][]int{"x": {0, 1}},
				CausalReaders: map[string][]int{"x": {5}},
			},
			wantErr: true,
		},
		{
			name: "causal reader missing from reader scope",
			scope: &ScopeMap{
				Readers:       map[string][]int{"x": {0}},
				CausalReaders: map[string][]int{"x": {1}},
			},
			wantErr: true,
		},
		{
			name: "causal readers on a PRAMOnly node",
			scope: &ScopeMap{
				Readers:       map[string][]int{"x": {1}},
				CausalReaders: map[string][]int{"x": {1}},
			},
			pramOnly: true,
			wantErr:  true,
		},
		{
			name: "valid causal scope",
			scope: &ScopeMap{
				Readers:       map[string][]int{"x": {0, 1}},
				CausalReaders: map[string][]int{"x": {1}},
			},
		},
		{
			name:     "valid PRAM scope",
			scope:    &ScopeMap{Readers: map[string][]int{"x": {1}}},
			pramOnly: true,
		},
		{
			name: "empty causal list is not an error",
			scope: &ScopeMap{
				Readers:       map[string][]int{"x": {1}},
				CausalReaders: map[string][]int{"x": {}},
			},
			pramOnly: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := network.New(network.Config{Nodes: 2})
			node, err := NewNode(Config{
				ID: 0, N: 2, Transport: f, PRAMOnly: tc.pramOnly, Scope: tc.scope,
			})
			f.Close()
			if tc.wantErr {
				if err == nil {
					node.Close()
					t.Fatal("invalid scope accepted")
				}
				return
			}
			if err != nil {
				t.Fatalf("valid scope rejected: %v", err)
			}
			node.Close()
		})
	}
}

func TestScopedMulticastDelivery(t *testing.T) {
	// Location "pair" goes only to node 1; "all" goes to both peers.
	f, _ := network.New(network.Config{Nodes: 3})
	scope := &ScopeMap{Readers: map[string][]int{
		"pair": {1},
		"all":  {1, 2},
	}}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 3, Transport: f, PRAMOnly: true, Scope: scope})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	nodes[0].Write("pair", 5)
	nodes[0].Write("all", 7)
	eventually(t, func() bool { return nodes[1].ReadPRAM("pair") == 5 }, "n1 missed pair")
	eventually(t, func() bool { return nodes[2].ReadPRAM("all") == 7 }, "n2 missed all")
	if got := nodes[2].ReadPRAM("pair"); got != 0 {
		t.Fatalf("scoped update leaked to node 2: %d", got)
	}
	// The sent vector is per destination: the last sequence number sent to
	// each, which node 2, sent only the second write, sees as its last.
	sent := nodes[0].SentCounts(nil)
	if sent[1] != 2 || sent[2] != 2 {
		t.Fatalf("sent = %v, want [0 2 2]", sent)
	}
	eventually(t, func() bool { return nodes[2].ReceivedCounts(nil)[0] == 2 },
		"recvd wrong under scope")
}

func TestScopedWaitReceived(t *testing.T) {
	f, _ := network.New(network.Config{Nodes: 3})
	scope := &ScopeMap{Readers: map[string][]int{
		"skip2": {1},
		"both":  {1, 2},
	}}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 3, Transport: f, PRAMOnly: true, Scope: scope})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	nodes[0].Write("skip2", 1) // seq 1, not sent to node 2
	nodes[0].Write("both", 2)  // seq 2, sent to node 2
	// Node 2 waits for the last sequence number node 0 sent it; that must
	// succeed despite the hole at the first.
	min := []uint64{nodes[0].SentCounts(nil)[2], 0, 0}
	done := make(chan struct{})
	go func() {
		nodes[2].WaitReceived(min)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitReceived hung on a sequence hole")
	}
	if got := nodes[2].ReadPRAM("both"); got != 2 {
		t.Fatalf("both = %d", got)
	}
}

func BenchmarkLocalWrite(b *testing.B) {
	f, _ := network.New(network.Config{Nodes: 2})
	n0, _ := NewNode(Config{ID: 0, N: 2, Transport: f})
	n1, _ := NewNode(Config{ID: 1, N: 2, Transport: f})
	defer func() { f.Close(); n0.Close(); n1.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n0.Write("bench", int64(i+1))
	}
}

func BenchmarkLocalPRAMRead(b *testing.B) {
	f, _ := network.New(network.Config{Nodes: 2})
	n0, _ := NewNode(Config{ID: 0, N: 2, Transport: f})
	n1, _ := NewNode(Config{ID: 1, N: 2, Transport: f})
	defer func() { f.Close(); n0.Close(); n1.Close() }()
	n0.Write("bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n0.ReadPRAM("bench")
	}
}

func BenchmarkLocalCausalRead(b *testing.B) {
	f, _ := network.New(network.Config{Nodes: 2})
	n0, _ := NewNode(Config{ID: 0, N: 2, Transport: f})
	n1, _ := NewNode(Config{ID: 1, N: 2, Transport: f})
	defer func() { f.Close(); n0.Close(); n1.Close() }()
	n0.Write("bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n0.ReadCausal("bench")
	}
}

func TestWriteLogTrim(t *testing.T) {
	nodes := cluster(t, 1, nil)
	n := nodes[0]
	m0 := n.WriteMark()
	n.Write("a", 1)
	n.Write("b", 2)
	m1 := n.WriteMark()
	n.Write("c", 3)

	// Trim below m1: the record for c survives, a and b are gone.
	n.TrimWriteLog(m1)
	if got := n.WritesSince(m0); len(got) != 1 || got[0].Loc != "c" {
		t.Fatalf("WritesSince after trim = %v, want [c]", got)
	}
	// Marks stay absolute: WritesSince(m1) is unchanged by the trim.
	if got := n.WritesSince(m1); len(got) != 1 || got[0].Loc != "c" {
		t.Fatalf("WritesSince(m1) = %v, want [c]", got)
	}
	// Trimming beyond the end clears everything; further writes append.
	n.TrimWriteLog(n.WriteMark())
	n.Write("d", 4)
	if got := n.WritesSince(m0); len(got) != 1 || got[0].Loc != "d" {
		t.Fatalf("after full trim = %v, want [d]", got)
	}
	// A stale (already-trimmed) trim point is a no-op.
	n.TrimWriteLog(m0)
}
