package tcp

import (
	"fmt"
	"time"

	"mixedmem/internal/transport"
)

// Fleet is an n-node loopback deployment behind one transport.Transport: the
// n Transports NewLoopback wires, with every call routed to the node it
// concerns — a send to the sender's transport, a receive to the receiver's.
// Like the simulated fabric it serves Recv for every node, so core.NewSystem
// runs a whole deployment over real sockets in one OS process and "tcp" is
// nothing more than a value of core.Config.Transport. Code that reaches into
// one node's channel (DropConn, per-node Diag) uses NewLoopback directly.
type Fleet struct {
	nodes []*Transport
}

var _ transport.Transport = (*Fleet)(nil)

// fleetFlush bounds how long Close waits for the tail of the conversation to
// be acknowledged before the sockets go away.
const fleetFlush = 2 * time.Second

// NewFleet builds the n-node loopback deployment. Callers must Close it.
func NewFleet(n int) (*Fleet, error) {
	nodes, err := NewLoopback(n, nil)
	if err != nil {
		return nil, err
	}
	return &Fleet{nodes: nodes}, nil
}

// Nodes returns the number of nodes the fleet connects.
func (f *Fleet) Nodes() int { return len(f.nodes) }

func (f *Fleet) valid(node int) bool { return node >= 0 && node < len(f.nodes) }

// Send enqueues m on the sender's transport.
func (f *Fleet) Send(m transport.Message) error {
	if !f.valid(m.From) {
		return fmt.Errorf("tcp: fleet send %d->%d: %w", m.From, m.To, ErrInvalidNode)
	}
	return f.nodes[m.From].Send(m)
}

// Broadcast sends from the sender's transport to every other node.
func (f *Fleet) Broadcast(from int, kind string, payload any, size int) error {
	if !f.valid(from) {
		return fmt.Errorf("tcp: fleet broadcast from %d: %w", from, ErrInvalidNode)
	}
	return f.nodes[from].Broadcast(from, kind, payload, size)
}

// Recv blocks until a message for node is delivered by node's transport.
func (f *Fleet) Recv(node int) (transport.Message, bool) {
	if !f.valid(node) {
		return transport.Message{}, false
	}
	return f.nodes[node].Recv(node)
}

// Pending reports the sender's count of messages queued from -> to.
func (f *Fleet) Pending(from, to int) int {
	if !f.valid(from) {
		return 0
	}
	return f.nodes[from].Pending(from, to)
}

// Stats returns the field-wise sum of the nodes' accounting: every message
// is counted once, by the transport that sent it.
func (f *Fleet) Stats() transport.Stats {
	total := transport.Stats{
		PerNodeSent:  make([]uint64, len(f.nodes)),
		PerKind:      make(map[string]uint64),
		PerKindBytes: make(map[string]uint64),
	}
	for _, t := range f.nodes {
		s := t.Stats()
		total.MessagesSent += s.MessagesSent
		total.BytesSent += s.BytesSent
		for i, v := range s.PerNodeSent {
			total.PerNodeSent[i] += v
		}
		for k, v := range s.PerKind {
			total.PerKind[k] += v
		}
		for k, v := range s.PerKindBytes {
			total.PerKindBytes[k] += v
		}
	}
	return total
}

// Diag returns the sum of the nodes' link diagnostics.
func (f *Fleet) Diag() Diag {
	var total Diag
	for _, t := range f.nodes {
		d := t.Diag()
		total.Dials += d.Dials
		total.DialFailures += d.DialFailures
		total.Replayed += d.Replayed
		total.Duplicates += d.Duplicates
		total.DecodeErrors += d.DecodeErrors
		total.Gaps += d.Gaps
		total.AcksSent += d.AcksSent
		total.LogBytes += d.LogBytes
	}
	return total
}

// Close lets every node's outbound channels drain (bounded by fleetFlush, so
// the last barrier releases and lock handoffs reach peers that are still
// running) and then closes every node. It is idempotent: a closed transport
// flushes and closes as a no-op.
func (f *Fleet) Close() {
	for _, t := range f.nodes {
		t.Flush(fleetFlush)
	}
	for _, t := range f.nodes {
		t.Close()
	}
}
