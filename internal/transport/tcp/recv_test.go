package tcp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

// rawSender is a hand-driven sending end of a channel: a plain connection to
// a transport's listener that has said hello as node `from`, so tests choose
// exactly which frames arrive, in which writes, on which connection.
type rawSender struct {
	t    *testing.T
	conn net.Conn
	acks *bufio.Reader
	from int
	to   int
}

func dialRaw(t *testing.T, tr *Transport, from int) *rawSender {
	t.Helper()
	conn, err := net.Dial("tcp", tr.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(appendHelloFrame(nil, from)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return &rawSender{t: t, conn: conn, acks: bufio.NewReader(conn), from: from, to: tr.id}
}

// frames encodes the sequences lo..hi as "tcptest" messages whose payload is
// the sequence number itself.
func (s *rawSender) frames(lo, hi uint64) []byte {
	var out, payload []byte
	for seq := lo; seq <= hi; seq++ {
		payload = transport.AppendUint64(payload[:0], seq)
		out = appendMsgFrame(out, seq, transport.Message{From: s.from, To: s.to, Kind: "tcptest", Size: 8}, payload)
	}
	return out
}

func (s *rawSender) write(b []byte) {
	s.t.Helper()
	if _, err := s.conn.Write(b); err != nil {
		s.t.Fatalf("raw write: %v", err)
	}
}

// readAck reads one ack frame; ok is false once the receiver hung up (EOF,
// or a reset if it closed with frames of ours unread).
func (s *rawSender) readAck() (cum uint64, ok bool) {
	s.t.Helper()
	body, err := readFrame(s.acks, nil)
	if err != nil {
		return 0, false
	}
	if len(body) != 9 || body[0] != frameAck {
		s.t.Errorf("not an ack frame: % x", body)
		return 0, false
	}
	return transport.NewDecoder(body[1:]).Uint64(), true
}

// TestBurstSharesOneAckPerRead pins the ack cadence. A sender that writes a
// thousand frames at once reads back far fewer than a thousand acks — one per
// read of the socket, and the receiver reads 4 KiB at a time — the last of
// them cumulative for the whole burst; a sender that waits for each ack gets
// exactly one per frame.
func TestBurstSharesOneAckPerRead(t *testing.T) {
	trs := newLoopbackT(t, 2)
	go func() {
		for {
			if _, ok := trs[1].Recv(1); !ok {
				return
			}
		}
	}()
	s := dialRaw(t, trs[1], 0)

	// One at a time: the i-th ack read is for exactly frame i, so none was
	// withheld and none sent twice.
	const lone = 50
	for seq := uint64(1); seq <= lone; seq++ {
		s.write(s.frames(seq, seq))
		if cum, ok := s.readAck(); !ok || cum != seq {
			t.Fatalf("lone frame %d: ack %d (ok=%v), want its own", seq, cum, ok)
		}
	}

	const burst = 1000
	stream := s.frames(lone+1, lone+burst)
	s.write(stream)
	acks := 0
	for {
		cum, ok := s.readAck()
		if !ok {
			t.Fatalf("connection closed after %d acks", acks)
		}
		acks++
		if cum == lone+burst {
			break
		}
	}
	// One ack per read, a read per 4 KiB when the bytes are all there; leave
	// room for reads the kernel cut short.
	if limit := 4 * (len(stream)/4096 + 1); acks > limit {
		t.Errorf("%d frames (%d bytes) in one write drew %d acks, want <= %d", burst, len(stream), acks, limit)
	}
	t.Logf("%d frames, %d bytes: %d acks", burst, len(stream), acks)
}

// TestTwoConnectionsDeliverInOrder is the regression test for a FIFO
// violation after a reconnect: the reader of a replaced connection can still
// be draining its buffer while the new connection's reader runs, and the two
// used to test-and-claim a sequence number under the receive lock but push to
// the inbox after releasing it — so the old reader could claim k, the new one
// claim and deliver k+1, and the old one then deliver k. Two connections both
// speaking for sender 0 stream the same sequence range at once; delivery must
// be 1..N, each exactly once.
func TestTwoConnectionsDeliverInOrder(t *testing.T) {
	trs := newLoopbackT(t, 2)
	const total = 1500
	var senders sync.WaitGroup
	for c := 0; c < 2; c++ {
		s := dialRaw(t, trs[1], 0)
		stream := s.frames(1, total)
		senders.Add(1)
		go func() {
			defer senders.Done()
			// Small writes, so the two readers leapfrog all the way up.
			for len(stream) > 0 {
				n := 512
				if n > len(stream) {
					n = len(stream)
				}
				if _, err := s.conn.Write(stream[:n]); err != nil {
					t.Errorf("raw write: %v", err)
					return
				}
				stream = stream[n:]
			}
			// Half-close and read to EOF: the receiver has then processed
			// every frame of this connection.
			s.conn.(*net.TCPConn).CloseWrite()
			for {
				if _, ok := s.readAck(); !ok {
					return
				}
			}
		}()
	}
	for want := uint64(1); want <= total; want++ {
		m := recvT(t, trs[1], 1)
		if got := m.Payload.(uint64); got != want {
			t.Fatalf("delivered %d, want %d: reordered or duplicated across the two connections", got, want)
		}
	}
	senders.Wait()
	// Both streams are fully processed; anything delivered twice would now
	// sit in the inbox ahead of this marker.
	if err := trs[1].Send(transport.Message{From: 1, To: 1, Kind: "marker"}); err != nil {
		t.Fatal(err)
	}
	if m := recvT(t, trs[1], 1); m.Kind != "marker" {
		t.Fatalf("extra delivery after the stream: %+v", m)
	}
	if d := trs[1].Diag(); d.Duplicates != total || d.Gaps != 0 {
		t.Fatalf("diag %+v, want %d duplicates (one copy of each frame) and no gaps", d, total)
	}
}

// TestSequenceGapClosesConnection: a frame that skips a sequence number is
// not delivered — that would lose the skipped message with no symptom. The
// receiver counts it, logs it and hangs up, so the sender replays from the
// cumulative ack.
func TestSequenceGapClosesConnection(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	trs, err := NewLoopback(2, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})

	s := dialRaw(t, trs[1], 0)
	s.write(append(s.frames(1, 2), s.frames(4, 5)...)) // 3 is missing
	last := uint64(0)
	for {
		cum, ok := s.readAck()
		if !ok {
			break // hung up on, as it should be
		}
		last = cum
	}
	if last > 2 {
		t.Fatalf("receiver acked %d across a gap after 2", last)
	}
	if d := trs[1].Diag(); d.Gaps != 1 {
		t.Fatalf("Gaps = %d, want 1", d.Gaps)
	}
	logMu.Lock()
	found := false
	for _, l := range logged {
		found = found || strings.Contains(l, "sequence gap, got 4 want 3")
	}
	logMu.Unlock()
	if !found {
		t.Errorf("gap not logged; log: %q", logged)
	}

	// The replay a real sender would make: a new connection, starting from
	// the receiver's cumulative position.
	s = dialRaw(t, trs[1], 0)
	s.write(s.frames(3, 5))
	for want := uint64(1); want <= 5; want++ {
		if got := recvT(t, trs[1], 1).Payload.(uint64); got != want {
			t.Fatalf("delivered %d, want %d", got, want)
		}
	}
}
