package tcp

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

// u64Codec is a test payload codec: a single big-endian uint64.
type u64Codec struct{}

func (u64Codec) Encode(dst []byte, payload any) ([]byte, error) {
	v, ok := payload.(uint64)
	if !ok {
		return nil, fmt.Errorf("tcp test codec: want uint64, got %T", payload)
	}
	return transport.AppendUint64(dst, v), nil
}

func (u64Codec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	v := d.Uint64()
	return v, d.Err()
}

func init() { transport.RegisterPayload("tcptest", u64Codec{}) }

func newLoopbackT(t *testing.T, n int) []*Transport {
	t.Helper()
	trs, err := NewLoopback(n, nil)
	if err != nil {
		t.Fatalf("NewLoopback(%d): %v", n, err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// recvT is Recv with a timeout so a delivery bug fails the test instead of
// hanging it.
func recvT(t *testing.T, tr *Transport, node int) transport.Message {
	t.Helper()
	type res struct {
		m  transport.Message
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		m, ok := tr.Recv(node)
		ch <- res{m, ok}
	}()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatalf("Recv(%d) returned closed", node)
		}
		return r.m
	case <-time.After(10 * time.Second):
		t.Fatalf("Recv(%d) timed out", node)
		return transport.Message{}
	}
}

// recvNT receives n messages under one deadline — for streams too long to
// spawn a recvT goroutine per message — handing each to check, which runs on
// the receiving goroutine and so reports with t.Errorf.
func recvNT(t *testing.T, tr *Transport, node, n int, check func(transport.Message)) {
	t.Helper()
	done := make(chan bool, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, ok := tr.Recv(node)
			if !ok {
				done <- false
				return
			}
			check(m)
		}
		done <- true
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatalf("Recv(%d) returned closed", node)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("Recv(%d): %d messages not received within 30s", node, n)
	}
}

func TestFIFOExactlyOnceDelivery(t *testing.T) {
	trs := newLoopbackT(t, 3)
	const per = 200
	for _, from := range []int{0, 2} {
		go func(from int) {
			for i := 0; i < per; i++ {
				err := trs[from].Send(transport.Message{
					From: from, To: 1, Kind: "tcptest",
					Payload: uint64(i), Size: 8,
				})
				if err != nil {
					t.Errorf("send %d->1 #%d: %v", from, i, err)
					return
				}
			}
		}(from)
	}
	next := map[int]uint64{0: 0, 2: 0}
	for got := 0; got < 2*per; got++ {
		m := recvT(t, trs[1], 1)
		if m.To != 1 || m.Kind != "tcptest" || m.Size != 8 {
			t.Fatalf("mangled message: %+v", m)
		}
		v, ok := m.Payload.(uint64)
		if !ok {
			t.Fatalf("payload type %T", m.Payload)
		}
		if v != next[m.From] {
			t.Fatalf("from %d: got seq %d, want %d (FIFO violated)", m.From, v, next[m.From])
		}
		next[m.From]++
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	trs := newLoopbackT(t, 3)
	if err := trs[0].Broadcast(0, "tcptest", uint64(42), 8); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for _, node := range []int{1, 2} {
		m := recvT(t, trs[node], node)
		if m.From != 0 || m.To != node || m.Payload.(uint64) != 42 {
			t.Fatalf("node %d: bad broadcast delivery %+v", node, m)
		}
	}
}

func TestSelfSendBypassesNetwork(t *testing.T) {
	trs := newLoopbackT(t, 2)
	// A payload type no codec could encode still works locally: self-sends
	// never serialize.
	type opaque struct{ s string }
	err := trs[0].Send(transport.Message{From: 0, To: 0, Kind: "no-codec-kind", Payload: opaque{"x"}})
	if err != nil {
		t.Fatalf("self send: %v", err)
	}
	m := recvT(t, trs[0], 0)
	if m.Payload.(opaque).s != "x" {
		t.Fatalf("self send mangled payload: %+v", m)
	}
}

func TestStatsAccounting(t *testing.T) {
	trs := newLoopbackT(t, 3)
	for i := 0; i < 5; i++ {
		if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 10}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := trs[0].Broadcast(0, "other", nil, 3); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	s := trs[0].Stats()
	if s.MessagesSent != 7 {
		t.Fatalf("MessagesSent = %d, want 7", s.MessagesSent)
	}
	if s.BytesSent != 5*10+2*3 {
		t.Fatalf("BytesSent = %d, want %d", s.BytesSent, 5*10+2*3)
	}
	if s.PerNodeSent[0] != 7 || s.PerNodeSent[1] != 0 {
		t.Fatalf("PerNodeSent = %v", s.PerNodeSent)
	}
	if s.PerKind["tcptest"] != 5 || s.PerKind["other"] != 2 {
		t.Fatalf("PerKind = %v", s.PerKind)
	}
}

func TestSendValidation(t *testing.T) {
	trs := newLoopbackT(t, 2)
	if err := trs[0].Send(transport.Message{From: 1, To: 0}); err == nil {
		t.Fatal("send with remote From accepted")
	}
	if err := trs[0].Send(transport.Message{From: 0, To: 5}); err == nil {
		t.Fatal("send to out-of-range node accepted")
	}
	if err := trs[0].Send(transport.Message{From: 0, To: -1}); err == nil {
		t.Fatal("send to negative node accepted")
	}
	if err := trs[0].Broadcast(1, "k", nil, 0); err == nil {
		t.Fatal("broadcast with remote From accepted")
	}
	if _, ok := trs[0].Recv(1); ok {
		t.Fatal("Recv for a remote node returned a message")
	}
	if got := trs[0].Pending(1, 0); got != 0 {
		t.Fatalf("Pending for remote channel = %d", got)
	}
	if got := trs[0].Pending(0, 7); got != 0 {
		t.Fatalf("Pending for out-of-range peer = %d", got)
	}
}

func TestSendUnencodablePayload(t *testing.T) {
	trs := newLoopbackT(t, 2)
	err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "unregistered", Payload: "boom"})
	if err == nil {
		t.Fatal("send with unregistered payload kind accepted")
	}
	if s := trs[0].Stats(); s.MessagesSent != 0 {
		t.Fatalf("failed send was accounted: %+v", s)
	}
}

func TestFlushDrainsUnackedMessages(t *testing.T) {
	trs := newLoopbackT(t, 2)
	for i := 0; i < 50; i++ {
		if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 8}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if !trs[0].Flush(10 * time.Second) {
		t.Fatal("Flush timed out with a live peer")
	}
	if got := trs[0].Pending(0, 1); got != 0 {
		t.Fatalf("Pending after Flush = %d", got)
	}
}

// eventually polls cond, yielding the processor between looks, until it holds
// (true) or ten seconds have passed (false).
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func TestKillAndReconnectReplaysWithoutLossOrReorder(t *testing.T) {
	trs := newLoopbackT(t, 2)
	p := trs[0].peers[1]
	connected := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.conn != nil
	}
	const total = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 8}); err != nil {
				t.Errorf("send #%d: %v", i, err)
				return
			}
			if i%100 == 50 {
				// Kill the connection mid-stream, once there is one; the
				// supervisor must redial and replay the unacked suffix.
				if !eventually(connected) {
					t.Errorf("no connection to kill at send #%d", i)
					return
				}
				dials := trs[0].Diag().Dials
				trs[0].DropConn(1)
				if !eventually(func() bool { return trs[0].Diag().Dials > dials }) {
					t.Errorf("no redial after the kill at send #%d: %+v", i, trs[0].Diag())
					return
				}
			}
		}
	}()
	for want := uint64(0); want < total; want++ {
		m := recvT(t, trs[1], 1)
		if got := m.Payload.(uint64); got != want {
			t.Fatalf("after reconnects: got %d, want %d (lost, duplicated, or reordered)", got, want)
		}
	}
	<-done
	d := trs[0].Diag()
	if d.Dials < 2 {
		t.Fatalf("Dials = %d, want >= 2 (reconnect did not happen)", d.Dials)
	}
	t.Logf("diag after drops: %+v, receiver duplicates: %d", d, trs[1].Diag().Duplicates)
}

func TestSupervisorBacksOffUntilPeerAppears(t *testing.T) {
	// Reserve an address, then close it so dials fail with ECONNREFUSED.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	peerAddr := tmp.Addr().String()
	tmp.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	peers := []string{ln0.Addr().String(), peerAddr}
	t0, err := New(Config{
		ID: 0, Peers: peers, Listener: ln0,
		BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer t0.Close()

	// The supervisor must be retrying with backoff while node 1 is down.
	if !eventually(func() bool { return t0.Diag().DialFailures >= 2 }) {
		t.Fatalf("no dial retries observed: %+v", t0.Diag())
	}
	if err := t0.Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(7), Size: 8}); err != nil {
		t.Fatalf("send while peer down: %v", err)
	}

	// Node 1 comes up late, on the advertised address.
	ln1, err := net.Listen("tcp", peerAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", peerAddr, err)
	}
	t1, err := New(Config{
		ID: 1, Peers: peers, Listener: ln1,
		BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New late peer: %v", err)
	}
	defer t1.Close()

	m := recvT(t, t1, 1)
	if m.Payload.(uint64) != 7 {
		t.Fatalf("late peer got %+v", m)
	}
	d := t0.Diag()
	if d.Dials < 1 || d.DialFailures < 2 {
		t.Fatalf("diag = %+v, want failures then a successful dial", d)
	}
}

// TestCloseIsIdempotentAndUnblocksReceivers: Recv returns false once the
// transport is closed, whether it was already waiting when Close came (or was
// about to be: the goroutine may not have got there yet) or is called after.
func TestCloseIsIdempotentAndUnblocksReceivers(t *testing.T) {
	trs, err := NewLoopback(2, nil)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	unblocked := make(chan bool, 1)
	go func() {
		_, ok := trs[0].Recv(0)
		unblocked <- ok
	}()
	trs[0].Close()
	trs[0].Close() // idempotent
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("Recv returned a message from a closed transport")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
	if _, ok := trs[0].Recv(0); ok {
		t.Fatal("Recv after Close returned a message")
	}
	// Operations on a closed transport must not panic or block.
	if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(1), Size: 8}); err != nil {
		t.Fatalf("send after close errored: %v", err)
	}
	trs[1].Close()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ID: 0}); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := New(Config{ID: 3, Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("out-of-range ID accepted")
	}
	if _, err := NewLoopback(0, nil); err == nil {
		t.Fatal("zero-node loopback accepted")
	}
}

// BenchmarkTransportSendRecv is the TCP counterpart of the fabric's
// BenchmarkFabricSendRecv: one message round from user space through the
// kernel loopback stack and back up, including codec, framing, and ack.
func BenchmarkTransportSendRecv(b *testing.B) {
	trs, err := NewLoopback(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 64}); err != nil {
			b.Fatal(err)
		}
		if _, ok := trs[1].Recv(1); !ok {
			b.Fatal("closed")
		}
	}
}
