package tcp

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

func newFleetT(t *testing.T, n int) *Fleet {
	t.Helper()
	f, err := NewFleet(n)
	if err != nil {
		t.Fatalf("NewFleet(%d): %v", n, err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFleetRoutesByNode pins the adapter's routing: a message sent through
// the fleet leaves on its sender's transport and is received — through the
// fleet, for any node — from its destination's, in per-pair FIFO order.
func TestFleetRoutesByNode(t *testing.T) {
	f := newFleetT(t, 3)
	if f.Nodes() != 3 {
		t.Fatalf("Nodes = %d, want 3", f.Nodes())
	}
	for i := 0; i < 20; i++ {
		if err := f.Send(transport.Message{From: 2, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 8}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Broadcast(0, "tcptest", uint64(99), 8); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	// One receiver goroutine (Recv is single-consumer per node); the buffer
	// holds every message it will be handed.
	msgs := make(chan transport.Message, 21)
	go func() {
		for i := 0; i < cap(msgs); i++ {
			m, ok := f.Recv(1)
			if !ok {
				break
			}
			msgs <- m
		}
		close(msgs)
	}()
	var fromTwo uint64
	for got := 0; got < cap(msgs); got++ {
		select {
		case m, ok := <-msgs:
			if !ok || m.To != 1 {
				t.Fatalf("Recv(1) = %+v, ok=%v after %d messages", m, ok, got)
			}
			if m.From == 2 {
				if m.Payload.(uint64) != fromTwo {
					t.Fatalf("2->1 delivered %d, want %d (FIFO broken)", m.Payload, fromTwo)
				}
				fromTwo++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Recv(1) timed out after %d messages", got)
		}
	}
	if m := recvT(t, f.nodes[2], 2); m.From != 0 || m.Payload.(uint64) != 99 {
		t.Fatalf("node 2 got %+v, want node 0's broadcast", m)
	}
}

// TestFleetRejectsOutOfRangeNodes: a node ID the fleet does not have is an
// ErrInvalidNode (or a closed Recv, or no pending messages), never an index
// panic.
func TestFleetRejectsOutOfRangeNodes(t *testing.T) {
	f := newFleetT(t, 2)
	for _, from := range []int{-1, 2, 7} {
		if err := f.Send(transport.Message{From: from, To: 0, Kind: "tcptest", Payload: uint64(1)}); !errors.Is(err, ErrInvalidNode) {
			t.Errorf("Send from %d: err = %v, want ErrInvalidNode", from, err)
		}
		if err := f.Broadcast(from, "tcptest", uint64(1), 8); !errors.Is(err, ErrInvalidNode) {
			t.Errorf("Broadcast from %d: err = %v, want ErrInvalidNode", from, err)
		}
		if _, ok := f.Recv(from); ok {
			t.Errorf("Recv(%d) returned a message", from)
		}
		if got := f.Pending(from, 0); got != 0 {
			t.Errorf("Pending(%d, 0) = %d", from, got)
		}
	}
	if err := f.Send(transport.Message{From: 0, To: 2, Kind: "tcptest", Payload: uint64(1)}); !errors.Is(err, ErrInvalidNode) {
		t.Errorf("Send to 2: err = %v, want ErrInvalidNode", err)
	}
}

// TestFleetStatsAreTheSumOfItsNodes: after a mixed unicast/broadcast exchange
// every field of the fleet's Stats is the field-wise sum of the member
// transports' — each message counted once, by the node that sent it — and
// Diag sums the same way.
func TestFleetStatsAreTheSumOfItsNodes(t *testing.T) {
	f := newFleetT(t, 3)
	for i := 0; i < 5; i++ {
		if err := f.Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 10}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := f.Send(transport.Message{From: 2, To: 2, Kind: "tcptest", Payload: uint64(7), Size: 4}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if err := f.Broadcast(1, "other", nil, 3); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := f.Broadcast(2, "tcptest", uint64(8), 6); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for _, n := range f.nodes {
		if !n.Flush(10 * time.Second) {
			t.Fatal("Flush timed out")
		}
	}

	want := transport.Stats{
		PerNodeSent:  make([]uint64, 3),
		PerKind:      map[string]uint64{},
		PerKindBytes: map[string]uint64{},
	}
	for _, n := range f.nodes {
		s := n.Stats()
		want.MessagesSent += s.MessagesSent
		want.BytesSent += s.BytesSent
		for i, v := range s.PerNodeSent {
			want.PerNodeSent[i] += v
		}
		for k, v := range s.PerKind {
			want.PerKind[k] += v
		}
		for k, v := range s.PerKindBytes {
			want.PerKindBytes[k] += v
		}
	}
	got := f.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet Stats = %+v, want the sum of its nodes %+v", got, want)
	}
	// And the sum is of the right things: 5 unicasts + 1 self send + 2x2
	// broadcast copies.
	if got.MessagesSent != 10 || got.BytesSent != 5*10+4+2*3+2*6 ||
		!reflect.DeepEqual(got.PerNodeSent, []uint64{5, 2, 3}) ||
		got.PerKind["tcptest"] != 8 || got.PerKind["other"] != 2 ||
		got.PerKindBytes["tcptest"] != 5*10+4+2*6 || got.PerKindBytes["other"] != 2*3 {
		t.Fatalf("fleet Stats = %+v", got)
	}

	// Diag moves on its own (a channel that carried nothing may still be
	// dialing, a repeated ackreq may still be answered), so the fleet's sum is
	// bracketed by the nodes' sums taken before and after it.
	sum := func() (dials, acks uint64) {
		for _, n := range f.nodes {
			d := n.Diag()
			dials += d.Dials
			acks += d.AcksSent
		}
		return dials, acks
	}
	dialsBefore, acksBefore := sum()
	d := f.Diag()
	dialsAfter, acksAfter := sum()
	// Five of the six channels carried traffic that Flush saw acknowledged.
	if d.Dials < dialsBefore || d.Dials > dialsAfter || d.Dials < 5 {
		t.Errorf("fleet Diag.Dials = %d, nodes sum to %d..%d, want >= 5", d.Dials, dialsBefore, dialsAfter)
	}
	if d.AcksSent < acksBefore || d.AcksSent > acksAfter || d.AcksSent < 5 {
		t.Errorf("fleet Diag.AcksSent = %d, nodes sum to %d..%d, want >= 5", d.AcksSent, acksBefore, acksAfter)
	}
	if d.LogBytes != 0 {
		t.Errorf("fleet Diag.LogBytes = %d after every node flushed", d.LogBytes)
	}
}

// TestFleetCloseIsIdempotent: Close unblocks every node's receiver, and a
// second Close, like operations on the closed fleet, neither panics nor
// blocks.
func TestFleetCloseIsIdempotent(t *testing.T) {
	f, err := NewFleet(3)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	unblocked := make(chan bool, f.Nodes())
	for node := 0; node < f.Nodes(); node++ {
		go func(node int) {
			_, ok := f.Recv(node)
			unblocked <- ok
		}(node)
	}
	if err := f.Broadcast(0, "other", nil, 1); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for i := 0; i < 2; i++ { // nodes 1 and 2 receive it
		select {
		case ok := <-unblocked:
			if !ok {
				t.Fatal("Recv reported closed before Close")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("broadcast not received")
		}
	}
	f.Close()
	f.Close()
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("Recv returned a message from a closed fleet")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock node 0's Recv")
	}
	if err := f.Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(1), Size: 8}); err != nil {
		t.Fatalf("send after close errored: %v", err)
	}
	if _, ok := f.Recv(1); ok {
		t.Fatal("Recv on a closed fleet returned a message")
	}
}
