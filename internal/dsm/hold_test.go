package dsm

import (
	"sync"
	"testing"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// TestHoldBatchesItsWrites: a node builds its outbox on its first hold, not
// before, and the writes of a hold leave as one frame per destination when it
// closes, counted as a synchronization flush.
func TestHoldBatchesItsWrites(t *testing.T) {
	nodes := cluster(t, 3)
	n := nodes[0]
	n.Write("a", 1)
	if n.outboxBuilt.Load() || n.outbox != nil {
		t.Fatal("a node that never held built an outbox")
	}
	n.Hold()
	n.Write("a", 2)
	n.Write("b", 3)
	n.Add("c", 4)
	n.Unhold()
	for _, r := range nodes[1:] {
		r.WaitCausalApplied([]uint64{4, 0, 0})
		if got := r.Snapshot(true); got["a"] != 2 || got["b"] != 3 || got["c"] != 4 {
			t.Fatalf("node %d reads %v", r.id, got)
		}
	}
	if s := n.Stats().Flushes.Sync; s.Frames != 2 || s.Entries != 6 {
		t.Fatalf("the hold closed with %+v sync flushes, want 2 frames of 3 entries", s)
	}
}

// TestWriteOutsideHoldKeepsFIFO: a write made outside any hold flushes what a
// hold left parked before it goes out itself. Between the close of a hold and
// its flush (Unhold's two halves) a write from another strand finds no hold
// open; sent at once, it would reach each peer ahead of the parked one, with
// the later sequence number first.
func TestWriteOutsideHoldKeepsFIFO(t *testing.T) {
	nodes := cluster(t, 3)
	n := nodes[0]
	n.Hold()
	n.Write("a", 1) // parked
	n.holds.Add(-1) // Unhold's close, without its flush yet
	n.Write("b", 2) // another strand's write, outside any hold
	n.FlushUpdates()
	for _, r := range nodes[1:] {
		r.WaitReceived([]uint64{2, 0, 0})
		r.WaitCausalApplied([]uint64{2, 0, 0})
		if m := r.Stats().MalformedUpdates; m != 0 {
			t.Fatalf("node %d counted %d malformed updates: the write overtook the parked one", r.id, m)
		}
		if got := r.Snapshot(true); got["a"] != 1 || got["b"] != 2 {
			t.Fatalf("node %d reads %v", r.id, got)
		}
	}
}

// TestHeldReadsFlush is a hold's liveness: a process that polls with plain
// reads inside a critical section, waiting for a peer that waits for what the
// section wrote, gets it out after heldReadsPerFlush reads. A hold has no
// linger flusher; without the rule the poll never ends.
func TestHeldReadsFlush(t *testing.T) {
	nodes := cluster(t, 2)
	n := nodes[0]
	n.Hold()
	n.Write("x", 1)
	go func() {
		nodes[1].AwaitCausal("x", 1)
		nodes[1].Write("y", 1)
	}()
	eventually(t, func() bool { return n.ReadPRAM("y") == 1 }, "the poll inside the hold never saw the reply")
	n.Unhold()
	if l := n.Stats().Flushes.Linger; l.Frames != 1 || l.Entries != 1 {
		t.Fatalf("the poll flushed %+v, want one frame of one entry", l)
	}
}

// batchSpy records, by sender, the pooled elements of the batches nodes hand
// their transport, and, by receiver, those the transport hands them, reading
// each while its message still holds it.
type batchSpy struct {
	transport.Transport
	mu   sync.Mutex
	sent map[int][]*stampedBatch
	recv map[int][]*stampedBatch
}

func (s *batchSpy) note(log map[int][]*stampedBatch, node int, payload any) {
	if b, ok := payload.(*UpdateBatch); ok {
		s.mu.Lock()
		log[node] = append(log[node], b.element())
		s.mu.Unlock()
	}
}

func (s *batchSpy) Send(m network.Message) error {
	s.note(s.sent, m.From, m.Payload)
	return s.Transport.Send(m)
}

func (s *batchSpy) Recv(node int) (network.Message, bool) {
	m, ok := s.Transport.Recv(node)
	if ok {
		s.note(s.recv, node, m.Payload)
	}
	return m, ok
}

func (s *batchSpy) elements(log map[int][]*stampedBatch, node int) []*stampedBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*stampedBatch(nil), log[node]...)
}

func spiedBatchNodes(t *testing.T, tr transport.Transport) ([]*Node, *batchSpy) {
	t.Helper()
	spy := &batchSpy{Transport: tr, sent: make(map[int][]*stampedBatch), recv: make(map[int][]*stampedBatch)}
	nodes := make([]*Node, tr.Nodes())
	for i := range nodes {
		var err error
		if nodes[i], err = NewNode(Config{ID: i, N: len(nodes), Transport: spy}); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		tr.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, spy
}

// releasedBatch fails unless e has no holder left and reads as released:
// empty, or poisoned under the race detector.
func releasedBatch(t *testing.T, e *stampedBatch) {
	t.Helper()
	if refs := e.link.refs.Load(); refs != 0 {
		t.Fatalf("batch element still has %d holders", refs)
	}
	first := uint64(0)
	if poisonReleased {
		first = poisonSeq
	}
	if e.FirstSeq != first || len(e.Updates) != 0 || e.Deps != nil || e.elem != nil {
		t.Fatalf("released batch element reads first seq %d, %d entries, deps %v", e.FirstSeq, len(e.Updates), e.Deps)
	}
}

// heldSection runs one critical section's worth of writes on n in a hold.
func heldSection(n *Node, v int64) {
	n.Hold()
	n.Write("a", v)
	n.Write("b", v)
	n.Unhold()
}

// TestReleasedBatchReturnsToItsPool follows a flushed batch from the outbox's
// pool to the destination that settles it and back: the receiver releases its
// one reference when the group settles (by reference on the simulated fabric;
// over tcp the sender's element returns once the frame is encoded and the
// receiver's, from its connection's pool, when it settles), and the next
// batch drawn there is the same element.
func TestReleasedBatchReturnsToItsPool(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		f, err := network.New(network.Config{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes, spy := spiedBatchNodes(t, f)
		heldSection(nodes[0], 1)
		sent := spy.elements(spy.sent, 0)
		if len(sent) != 2 {
			t.Fatalf("one hold sent %d batches, want one per peer", len(sent))
		}
		nodes[1].WaitCausalApplied([]uint64{2, 0, 0})
		nodes[2].WaitCausalApplied([]uint64{2, 0, 0})
		nodes[0].outboxMu.Lock()
		for _, e := range sent {
			if !inPool(&nodes[0].flushBatches.pool, e) {
				nodes[0].outboxMu.Unlock()
				t.Fatal("a settled batch is not back in its pool")
			}
			releasedBatch(t, e)
		}
		nodes[0].outboxMu.Unlock()
		heldSection(nodes[0], 2)
		if next := spy.elements(spy.sent, 0)[2]; next != sent[0] && next != sent[1] {
			t.Fatal("the next batch did not reuse a released element")
		}
	})
	t.Run("tcp", func(t *testing.T) {
		fleet, err := tcp.NewFleet(2)
		if err != nil {
			t.Fatal(err)
		}
		nodes, spy := spiedBatchNodes(t, fleet)
		heldSection(nodes[0], 1)
		// Send encoded the batch and recycled it before Unhold returned.
		e := spy.elements(spy.sent, 0)[0]
		nodes[0].outboxMu.Lock()
		back := inPool(&nodes[0].flushBatches.pool, e)
		if back {
			releasedBatch(t, e)
		}
		nodes[0].outboxMu.Unlock()
		if !back {
			t.Fatal("an encoded batch is not back in its pool")
		}
		nodes[1].WaitCausalApplied([]uint64{2, 0})
		// Only the refcount: the connection's goroutine may reuse the element
		// at any time now.
		d := spy.elements(spy.recv, 1)[0]
		if refs := d.link.refs.Load(); refs != 0 {
			t.Fatalf("node 1 settled its decoded batch, which still has %d holders", refs)
		}
		heldSection(nodes[0], 2)
		nodes[1].WaitCausalApplied([]uint64{4, 0})
		if spy.elements(spy.recv, 1)[1] != d {
			t.Fatal("node 1's connection decoded the next batch into a new element, not the released one")
		}
	})
}

// TestHeldSectionAllocFree pins a held critical section's cost once its pools
// are warm: the writes, the flush of one batch and the receiver's settle of it
// allocate nothing. A batch whose header, entries or stamps are allocated per
// flush again reads at least 1.
func TestHeldSectionAllocFree(t *testing.T) {
	nodes := allocCluster(t, false, BatchConfig{})
	min := []uint64{0, 0}
	var v int64
	section := func() {
		v++
		heldSection(nodes[0], v)
		min[0] += 2
		nodes[1].WaitCausalApplied(min)
	}
	section()
	if allocs := testing.AllocsPerRun(200, section); allocs != 0 {
		t.Errorf("held two-write critical section: %.2f allocs, want 0", allocs)
	}
}
