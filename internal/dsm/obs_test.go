package dsm

import (
	"testing"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// obsCluster builds a two-node cluster with a tracer per node.
func obsCluster(t *testing.T, batch BatchConfig, labels map[string]history.Label) ([]*Node, []*obs.Tracer) {
	t.Helper()
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, 2)
	tracers := make([]*obs.Tracer, 2)
	for i := range nodes {
		tracers[i] = obs.NewTracer(i, 4096)
		nodes[i], err = NewNode(Config{
			ID: i, N: 2, Transport: f, Batch: batch, Labels: labels, Tracer: tracers[i],
		})
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
	return nodes, tracers
}

// TestBlockedCausePartition is the regression contract for the Blocked
// split: after a workload that exercises every wait site — await, causal
// machinery (fence raise, count waits), an SC round trip, and an
// invalidation stall — the four per-cause durations sum to exactly the
// Blocked aggregate on every node. Every wait site adds the same measured
// interval to one cause and to the total, so the equality is exact, not
// approximate.
func TestBlockedCausePartition(t *testing.T) {
	// Pick an SC location owned by node 0, so node 1's access round-trips.
	scLoc := "sc-a"
	for i := 0; SCOwner(scLoc, 2) != 0; i++ {
		scLoc = "sc-" + string(rune('a'+i))
	}
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	labels := map[string]history.Label{scLoc: history.LabelSC}
	n0, err := NewNode(Config{ID: 0, N: 2, Transport: f, Labels: labels})
	if err != nil {
		t.Fatalf("NewNode(0): %v", err)
	}
	n1, err := NewNode(Config{ID: 1, N: 2, Transport: f, Labels: labels})
	if err != nil {
		t.Fatalf("NewNode(1): %v", err)
	}
	defer func() { f.Close(); n0.Close(); n1.Close() }()

	// Await (node 1 blocks until node 0's write arrives).
	done := make(chan struct{})
	go func() {
		n1.AwaitCausal("flag", 1)
		close(done)
	}()
	awaitRegistered(t, n1, "flag")
	n0.Write("data", 7)
	n0.Write("flag", 1)
	<-done

	// Causal-wait: count waits and a fence raise after a PRAM await.
	n1.WaitReceived([]uint64{2, 0})
	n1.WaitCausalApplied([]uint64{2, 0})
	n1.AwaitPRAM("flag", 1) // raises the observation fence
	n1.ReadCausal("data")   // fence may already be covered; cheap either way

	// Invalidation stall: invalidate, satisfy it, and read until it is.
	n1.Invalidate("inv", 0, 3)
	n0.Write("inv", 1)
	n0.Write("inv", 2)
	n0.Write("inv", 3)
	n1.ReadCausal("inv")

	// SC round trip from the non-owner.
	n1.WriteSC(scLoc, 5)
	if got := n1.ReadSC(scLoc); got != 5 {
		t.Fatalf("SC read = %d, want 5", got)
	}

	for i, n := range []*Node{n0, n1} {
		s := n.Stats()
		sum := s.BlockedAwait + s.BlockedCausalWait + s.BlockedSC + s.BlockedInvalidation
		if sum != s.Blocked {
			t.Errorf("node %d: causes sum to %v, Blocked = %v (%+v)", i, sum, s.Blocked, s)
		}
	}
	// The workload demonstrably blocked on at least await and SC.
	s1 := n1.Stats()
	if s1.BlockedAwait == 0 {
		t.Errorf("node 1 never blocked in await: %+v", s1)
	}
	if s1.BlockedSC == 0 {
		t.Errorf("node 1 never blocked in an SC round trip: %+v", s1)
	}
}

// TestTracerEndToEndExplain runs one write-visibility handshake under the
// tracer in both send modes (direct broadcast and the batched outbox) and
// checks the recorded rings reconstruct a complete happens-before chain:
// the explainer must produce a fully attributed sample for each mode.
func TestTracerEndToEndExplain(t *testing.T) {
	var snaps []*obs.Snapshot
	for _, mode := range []struct {
		tag   string
		batch BatchConfig
	}{
		{"direct", BatchConfig{}},
		{"batched", BatchConfig{Enabled: true, MaxUpdates: 64, Linger: time.Millisecond}},
	} {
		nodes, tracers := obsCluster(t, mode.batch, nil)
		done := make(chan struct{})
		go func() {
			nodes[1].AwaitCausal("vis/flag", 1)
			close(done)
		}()
		awaitRegistered(t, nodes[1], "vis/flag")
		nodes[0].Write("vis/data", 42)
		nodes[0].Write("vis/flag", 1)
		nodes[0].FlushUpdates()
		<-done
		for _, tr := range tracers {
			s := tr.Snapshot()
			s.Tag = mode.tag
			snaps = append(snaps, s)
		}
	}

	ex := obs.Explain(snaps, func(loc string) bool { return loc == "vis/flag" })
	if len(ex.Breakdowns) != 2 {
		t.Fatalf("got %d breakdowns, want 2 (direct, batched)", len(ex.Breakdowns))
	}
	for _, b := range ex.Breakdowns {
		if b.Samples == 0 {
			t.Fatalf("tag %q produced no samples", b.Tag)
		}
		if b.Incomplete != 0 {
			t.Errorf("tag %q: %d incomplete samples (chain events missing)", b.Tag, b.Incomplete)
		}
		if b.MinAttribution < 0.95 {
			t.Errorf("tag %q: min attribution %.3f, want >= 0.95", b.Tag, b.MinAttribution)
		}
	}
	// The awaited flag must chain from node 0's write issue.
	for _, s := range ex.SamplesOut {
		if s.Writer != 0 || s.Reader != 1 || s.Loc != "vis/flag" {
			t.Errorf("sample identity = %+v", s)
		}
	}
}

// TestTracerEventCoverage checks the hot-path event kinds all appear in a
// traced run: issue, enqueue, flush, recv, apply, group release, await end.
func TestTracerEventCoverage(t *testing.T) {
	nodes, tracers := obsCluster(t,
		BatchConfig{Enabled: true, MaxUpdates: 4, Linger: time.Millisecond}, nil)
	done := make(chan struct{})
	go func() {
		nodes[1].AwaitCausal("flag", 1)
		close(done)
	}()
	awaitRegistered(t, nodes[1], "flag")
	for i := int64(1); i <= 6; i++ {
		nodes[0].Write("data", i)
	}
	nodes[0].Write("flag", 1)
	nodes[0].FlushUpdates()
	<-done

	seen := map[obs.EventType]bool{}
	for _, tr := range tracers {
		for _, e := range tr.Snapshot().Events {
			seen[e.Type] = true
		}
	}
	for _, want := range []obs.EventType{
		obs.EvWriteIssue, obs.EvEnqueue, obs.EvFlush, obs.EvApply,
		obs.EvGroupRelease, obs.EvAwaitBegin, obs.EvAwaitEnd,
	} {
		if !seen[want] {
			t.Errorf("no %v event recorded", want)
		}
	}
	if !seen[obs.EvRecv] && !seen[obs.EvRecvBatch] {
		t.Errorf("no receive event recorded")
	}
}

// TestWriteTracedSteadyStateAllocFree pins the tracer-on hot-path floor:
// with tracing enabled, a steady-state batched PRAM write still allocates
// nothing — the ring record is a few atomic stores into preallocated slots
// and the interned-location lookup is a lock-free map hit.
func TestWriteTracedSteadyStateAllocFree(t *testing.T) {
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i], err = NewNode(Config{
			ID: i, N: 2, Transport: f, PRAMOnly: true,
			Batch:  BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour},
			Tracer: obs.NewTracer(i, 1024),
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	n := nodes[0]
	n.Write("steady", 1) // warm the cell, ring slot, and intern table
	var v int64
	allocs := testing.AllocsPerRun(500, func() {
		v++
		n.Write("steady", v)
	})
	if allocs > 0 {
		t.Errorf("traced steady-state batched PRAM Write: %.3f allocs/op, want 0", allocs)
	}
}
