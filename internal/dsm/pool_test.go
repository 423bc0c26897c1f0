package dsm

import (
	"sync"
	"testing"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// elementSpy records, by sender, the pooled elements of the updates nodes hand
// their transport, and, by receiver, those the transport hands them. It reads
// an update's element while the message still holds it and holds no reference
// itself, so it never delays a release.
type elementSpy struct {
	transport.Transport
	mu   sync.Mutex
	sent map[int][]*stampedUpdate
	recv map[int][]*stampedUpdate
}

func newElementSpy(tr transport.Transport) *elementSpy {
	return &elementSpy{Transport: tr, sent: make(map[int][]*stampedUpdate), recv: make(map[int][]*stampedUpdate)}
}

func (s *elementSpy) note(log map[int][]*stampedUpdate, node int, payload any) {
	if u, ok := payload.(*Update); ok {
		s.mu.Lock()
		log[node] = append(log[node], u.element())
		s.mu.Unlock()
	}
}

func (s *elementSpy) Send(m network.Message) error {
	s.note(s.sent, m.From, m.Payload)
	return s.Transport.Send(m)
}

func (s *elementSpy) Broadcast(from int, kind string, payload any, size int) error {
	s.note(s.sent, from, payload)
	return s.Transport.Broadcast(from, kind, payload, size)
}

func (s *elementSpy) Recv(node int) (network.Message, bool) {
	m, ok := s.Transport.Recv(node)
	if ok {
		s.note(s.recv, node, m.Payload)
	}
	return m, ok
}

// last returns the latest element in log for node.
func (s *elementSpy) last(t *testing.T, log map[int][]*stampedUpdate, node int) *stampedUpdate {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(log[node]) == 0 || log[node][len(log[node])-1] == nil {
		t.Fatalf("node %d: no pooled update recorded", node)
	}
	return log[node][len(log[node])-1]
}

// spiedNodes starts n nodes on tr, each behind the same spy.
func spiedNodes(t *testing.T, tr transport.Transport, scope *ScopeMap) ([]*Node, *elementSpy) {
	t.Helper()
	spy := newElementSpy(tr)
	nodes := make([]*Node, tr.Nodes())
	for i := range nodes {
		var err error
		if nodes[i], err = NewNode(Config{ID: i, N: len(nodes), Transport: spy, Scope: scope}); err != nil {
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

// released fails unless e has no holder left and reads as released: cleared,
// or poisoned under the race detector.
func released(t *testing.T, e *stampedUpdate) {
	t.Helper()
	if refs := e.link.refs.Load(); refs != 0 {
		t.Fatalf("element still has %d holders", refs)
	}
	want := Update{}
	if poisonReleased {
		want.Seq, want.Value, want.Ordinal = poisonSeq, poisonValue, poisonOrdinal
	}
	if e.Seq != want.Seq || e.Value != want.Value || e.Ordinal != want.Ordinal || e.TS != nil || e.Deps != nil || e.elem != nil {
		t.Fatalf("released element reads seq %d, value %d, ordinal %d, ts %v, deps %v", e.Seq, e.Value, e.Ordinal, e.TS, e.Deps)
	}
}

// inPool reports whether e is free in the pool p: on its free list or its
// return stack. The caller holds the lock p's owner draws under.
func inPool[E any, P pooled[E]](p *pool[E, P], e *E) bool {
	for f := p.free; f != nil; f = P(f).poolLink().next {
		if f == e {
			return true
		}
	}
	for f := p.back.Load(); f != nil; f = P(f).poolLink().next {
		if f == e {
			return true
		}
	}
	return false
}

// backInSentPool fails unless e, sent by n, has come back to n's pool, and
// checks that n's next sent update is e again.
func backInSentPool(t *testing.T, n *Node, e *stampedUpdate, spy *elementSpy, loc string) {
	t.Helper()
	n.clockMu.Lock()
	home, ok := e.link.home == &n.sentPool.back, inPool(&n.sentPool, e)
	if ok {
		released(t, e)
	}
	n.clockMu.Unlock()
	if !home || !ok {
		t.Fatalf("node %d's sent update is not back in its pool (from it: %v)", n.id, home)
	}
	n.Write(loc, 99)
	if spy.last(t, spy.sent, n.id) != e {
		t.Fatalf("node %d's next update did not reuse the released element", n.id)
	}
}

// heldByParkedGroup fails unless e, sent by sender, is out of its pool with
// one holder left, and r's parked head group from sender holds e.
func heldByParkedGroup(t *testing.T, sender, r *Node, e *stampedUpdate) {
	t.Helper()
	sender.clockMu.Lock()
	free, refs := inPool(&sender.sentPool, e), e.link.refs.Load()
	sender.clockMu.Unlock()
	if free || refs != 1 {
		t.Fatalf("parked update: in its pool %v, %d holders; want out of it, held once", free, refs)
	}
	r.clockMu.Lock()
	q := &r.pending[sender.id]
	held := q.size > 0 && q.at(0).upd == &e.Update
	r.clockMu.Unlock()
	if !held {
		t.Fatal("the parked group does not hold the update")
	}
}

// TestReleasedUpdateReturnsToItsPool follows a pooled update from the pool it
// comes from back to it: every holder — a receiver that settled its group, a
// wire transport that encoded its frame — releases it once, the last one
// returns it, and the next update drawn there is the same element. A group
// parked on the update's timestamp or matrix keeps it out of the pool until it
// settles. Over tcp the sender's element returns as soon as Broadcast has
// encoded it for every peer, and the receiver's, from its connection's pool,
// when the receiver settles it.
func TestReleasedUpdateReturnsToItsPool(t *testing.T) {
	t.Run("sim broadcast", func(t *testing.T) {
		f, err := network.New(network.Config{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes, spy := spiedNodes(t, f, nil)
		nodes[0].Write("a", 1)
		e := spy.last(t, spy.sent, 0)
		nodes[1].WaitCausalApplied([]uint64{1, 0, 0})
		nodes[2].WaitCausalApplied([]uint64{1, 0, 0})
		backInSentPool(t, nodes[0], e, spy, "a")
	})
	t.Run("scoped send", func(t *testing.T) {
		f, err := network.New(network.Config{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		scope := &ScopeMap{
			Readers:       map[string][]int{"sub": {0, 1, 2}},
			CausalReaders: map[string][]int{"sub": {0, 1, 2}},
		}
		nodes, spy := spiedNodes(t, f, scope)
		nodes[0].Write("sub", 1)
		e := spy.last(t, spy.sent, 0) // one Send to each of nodes 1 and 2
		nodes[1].WaitCausalApplied([]uint64{1, 0, 0, 0})
		nodes[2].WaitCausalApplied([]uint64{1, 0, 0, 0})
		backInSentPool(t, nodes[0], e, spy, "sub")
	})
	t.Run("parked obVector group", func(t *testing.T) {
		f, err := network.New(network.Config{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes, spy := spiedNodes(t, f, nil)
		if err := f.Hold(0, 2); err != nil {
			t.Fatal(err)
		}
		nodes[0].Write("a", 1)
		nodes[1].WaitReceived([]uint64{1, 0, 0})
		nodes[1].Write("x", 1) // waits at node 2 for the held a=1
		e := spy.last(t, spy.sent, 1)
		nodes[0].WaitCausalApplied([]uint64{0, 1, 0})
		nodes[2].WaitReceived([]uint64{0, 1, 0})
		heldByParkedGroup(t, nodes[1], nodes[2], e)
		if err := f.Release(0, 2); err != nil {
			t.Fatal(err)
		}
		nodes[2].WaitCausalApplied([]uint64{1, 1, 0})
		backInSentPool(t, nodes[1], e, spy, "x")
	})
	t.Run("parked obMatrix group", func(t *testing.T) {
		f, err := network.New(network.Config{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		scope := &ScopeMap{
			Readers:       map[string][]int{"a": {1, 2}, "x": {2}},
			CausalReaders: map[string][]int{"a": {1, 2}, "x": {2}},
		}
		nodes, spy := spiedNodes(t, f, scope)
		if err := f.Hold(0, 2); err != nil {
			t.Fatal(err)
		}
		nodes[0].Write("a", 1)
		nodes[1].WaitCausalApplied([]uint64{1, 0, 0}) // merges a=1's matrix
		nodes[1].Write("x", 1)                        // waits at node 2 for the held a=1
		e := spy.last(t, spy.sent, 1)
		nodes[2].WaitReceived([]uint64{0, 1, 0})
		heldByParkedGroup(t, nodes[1], nodes[2], e)
		if err := f.Release(0, 2); err != nil {
			t.Fatal(err)
		}
		nodes[2].WaitCausalApplied([]uint64{1, 1, 0})
		backInSentPool(t, nodes[1], e, spy, "x")
	})
	t.Run("tcp send and decode", func(t *testing.T) {
		fleet, err := tcp.NewFleet(3)
		if err != nil {
			t.Fatal(err)
		}
		nodes, spy := spiedNodes(t, fleet, nil)
		nodes[0].Write("a", 1)
		// Broadcast encoded the update once and recycled it once per peer
		// before Write returned.
		backInSentPool(t, nodes[0], spy.last(t, spy.sent, 0), spy, "a")
		nodes[1].WaitCausalApplied([]uint64{2, 0, 0})
		// Only the refcount: the connection's goroutine may reuse the element
		// at any time now, and nothing orders its writes after a read here.
		d := spy.last(t, spy.recv, 1)
		if refs := d.link.refs.Load(); refs != 0 {
			t.Fatalf("node 1 settled its decoded update, which still has %d holders", refs)
		}
		nodes[0].Write("a", 3)
		nodes[1].WaitCausalApplied([]uint64{3, 0, 0})
		if spy.last(t, spy.recv, 1) != d {
			t.Fatal("node 1's connection decoded the next update into a new element, not the released one")
		}
	})
}
