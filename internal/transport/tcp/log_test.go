package tcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

// blobCodec is a test payload codec for byte strings of any length, to size
// frames against chunk boundaries.
type blobCodec struct{}

func (blobCodec) Encode(dst []byte, payload any) ([]byte, error) {
	b, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("tcp test codec: want []byte, got %T", payload)
	}
	return append(dst, b...), nil
}

func (blobCodec) Decode(data []byte) (any, error) { return append([]byte(nil), data...), nil }

func init() { transport.RegisterPayload("tcpblob", blobCodec{}) }

// blob is a "tcpblob" message whose frame is exactly frameLen bytes long when
// its sequence number is below 128 (a one-byte varint); one byte longer up to
// 1<<14.
func blob(frameLen int, fill byte) (transport.Message, []byte) {
	payload := bytes.Repeat([]byte{fill}, frameLen-msgFrameSize(1, "tcpblob", nil))
	return transport.Message{From: 0, To: 1, Kind: "tcpblob", Size: len(payload)}, payload
}

// logSeqs walks every chunk's length prefixes and returns the sequence
// numbers found, checking each chunk's first/n against its bytes.
func logSeqs(t *testing.T, p *peer) []uint64 {
	t.Helper()
	var seqs []uint64
	for i, c := range p.log {
		n := 0
		for off := 0; off < len(c.b); n++ {
			seq, _ := binary.Uvarint(c.b[off+5:])
			if seq != c.first+uint64(n) {
				t.Fatalf("chunk %d frame %d carries seq %d, chunk says first=%d", i, n, seq, c.first)
			}
			seqs = append(seqs, seq)
			off += 4 + int(binary.BigEndian.Uint32(c.b[off:]))
		}
		if n != c.n {
			t.Fatalf("chunk %d holds %d frames, says %d", i, n, c.n)
		}
	}
	return seqs
}

// firstUnwritten is the sequence number at the writer's position.
func firstUnwritten(p *peer) uint64 {
	seq, _ := binary.Uvarint(p.log[p.wi].b[p.woff+5:])
	return seq
}

func TestLogChunkBoundaries(t *testing.T) {
	p := newTestPeer()
	small, smallPayload := blob(100, 'a')
	p.push(small, smallPayload)
	// A frame that exactly fills the chunk stays in it...
	m, payload := blob(chunkSize-100, 'b')
	p.push(m, payload)
	if len(p.log) != 1 || len(p.log[0].b) != chunkSize || cap(p.log[0].b) != chunkSize {
		t.Fatalf("exact fill: %d chunks, first %d/%d bytes", len(p.log), len(p.log[0].b), cap(p.log[0].b))
	}
	// ...the next frame starts a new one...
	p.push(small, smallPayload)
	// ...and a frame larger than a chunk gets one of exactly its own size,
	// without disturbing what was there.
	m, payload = blob(chunkSize+1, 'c')
	p.push(m, payload)
	p.push(small, smallPayload)
	if len(p.log) != 4 {
		t.Fatalf("log has %d chunks, want 4 (full, small, oversized, small)", len(p.log))
	}
	if got := cap(p.log[2].b); got != chunkSize+1 || p.log[2].n != 1 {
		t.Fatalf("oversized frame's chunk: cap %d, %d frames", got, p.log[2].n)
	}
	if got := logSeqs(t, p); len(got) != 5 || got[4] != 5 {
		t.Fatalf("log carries %v, want 1..5", got)
	}

	// The writer takes it all as one slice per chunk.
	p.wbatch = p.takeUnwritten(p.wbatch[:0])
	if len(p.wbatch) != 4 || p.sent != 5 {
		t.Fatalf("took %d slices up to %d, want 4 up to 5", len(p.wbatch), p.sent)
	}

	// Acking into the middle of the first chunk drops nothing; acking its
	// last frame drops it; a reconnect then starts at the exact boundary.
	p.advanceAck(1)
	if len(p.log) != 4 {
		t.Fatalf("ack 1 left %d chunks, want 4", len(p.log))
	}
	p.advanceAck(2)
	if len(p.log) != 3 || p.log[0].first != 3 {
		t.Fatalf("ack 2 left %d chunks starting at %d, want 3 starting at 3", len(p.log), p.log[0].first)
	}
	p.seek()
	if p.sent != 2 || firstUnwritten(p) != 3 {
		t.Fatalf("rewind: sent=%d, position at seq %d; want 2 and 3", p.sent, firstUnwritten(p))
	}
	p.advanceAck(5)
	if len(p.log) != 1 || p.base != 5 || p.sent != 5 {
		t.Fatalf("ack 5: %d chunks, base %d, sent %d", len(p.log), p.base, p.sent)
	}
}

// TestAckPastWriterSkipsAhead: an ack may cover frames the current connection
// has not carried — after a reconnect the writer is rewound to the first frame
// the sender saw no ack for, while the receiver may hold more than that and
// says so in its next ack. The writer normally takes the whole log before any
// ack can come back, so this is the sender not trusting the wire: whatever an
// ack covers is never written again, and the position lands on a frame
// boundary mid-chunk.
func TestAckPastWriterSkipsAhead(t *testing.T) {
	p := newTestPeer()
	m, payload := blob(100, 'x')
	for i := 0; i < 10; i++ {
		p.push(m, payload)
	}
	p.wbatch = p.takeUnwritten(p.wbatch[:0])
	p.advanceAck(3)
	p.seek() // reconnect
	if p.sent != 3 || firstUnwritten(p) != 4 {
		t.Fatalf("rewind: sent=%d, position at seq %d", p.sent, firstUnwritten(p))
	}
	p.advanceAck(7)
	if p.sent != 7 || firstUnwritten(p) != 8 {
		t.Fatalf("ack past the writer: sent=%d, position at seq %d; want 7 and 8", p.sent, firstUnwritten(p))
	}
	p.wbatch = p.takeUnwritten(p.wbatch[:0])
	if len(p.wbatch) != 1 || len(p.wbatch[0]) != 300 {
		t.Fatalf("replay after the ack: %d slices, %d bytes; want frames 8..10 only", len(p.wbatch), len(p.wbatch[0]))
	}
	// An ack for more than was ever sent is clamped, a stale one ignored.
	p.advanceAck(99)
	if p.base != 10 || p.sent != 10 {
		t.Fatalf("oversized ack: base=%d sent=%d, want 10 10", p.base, p.sent)
	}
	p.advanceAck(4)
	if p.base != 10 {
		t.Fatalf("stale ack moved base back to %d", p.base)
	}
}

// TestFullyAckedTailGetsSuccessor: a tail chunk that is full and fully acked
// stays in the log until the next ack — its end and its successor's start are
// one position, for the ack cursor and for a rewind alike — and the unacked
// byte count follows every step.
func TestFullyAckedTailGetsSuccessor(t *testing.T) {
	p := newTestPeer()
	m, payload := blob(100, 'x')
	p.push(m, payload)
	big, bigPayload := blob(chunkSize-100, 'y')
	p.push(big, bigPayload)
	p.wbatch = p.takeUnwritten(p.wbatch[:0])
	if p.unacked != chunkSize {
		t.Fatalf("unacked = %d with a full chunk pushed, want %d", p.unacked, chunkSize)
	}
	p.advanceAck(1)
	if p.unacked != chunkSize-100 || p.aoff != 100 {
		t.Fatalf("ack 1: unacked=%d aoff=%d, want %d and 100", p.unacked, p.aoff, chunkSize-100)
	}
	p.advanceAck(2)
	if len(p.log) != 1 || p.unacked != 0 || p.aoff != chunkSize {
		t.Fatalf("ack 2: %d chunks, unacked=%d aoff=%d; want the drained tail kept", len(p.log), p.unacked, p.aoff)
	}
	p.push(m, payload)
	if len(p.log) != 2 || p.unacked != 100 {
		t.Fatalf("push behind a full acked tail: %d chunks, unacked=%d", len(p.log), p.unacked)
	}
	p.seek()
	if p.sent != 2 {
		t.Fatalf("rewind over an acked chunk: sent=%d", p.sent)
	}
	if got := p.takeUnwritten(nil); len(got) != 1 || len(got[0]) != 100 {
		t.Fatalf("rewind over an acked chunk took %d slices", len(got))
	}
	p.advanceAck(3)
	if len(p.log) != 1 || p.log[0].first != 3 || p.unacked != 0 || p.aoff != 100 {
		t.Fatalf("after the ack: %d chunks, first=%d, unacked=%d, aoff=%d", len(p.log), p.log[0].first, p.unacked, p.aoff)
	}
}

// TestReplayChunkReusedOnlyAfterWrite: an ack may cover a chunk the writer is
// still handing to the kernel — the receiver got those frames on an earlier
// connection — and the chunk must not be filled again until that write has
// returned. The writer streams into a synchronous pipe, so it is blocked
// mid-write on the first chunk while the test reads half of it, acks all of
// it, and pushes two chunks' worth of frames, enough to overwrite a reused
// chunk end to end. Every frame must then arrive intact; and once the write
// has returned, the writer has handed the retired chunk on for reuse.
func TestReplayChunkReusedOnlyAfterWrite(t *testing.T) {
	const frame = 1024
	perChunk := chunkSize / frame
	p := newTestPeer()
	push := func(n int) {
		for i := 0; i < n; i++ {
			// Every byte of a frame's payload is its sequence number's low byte.
			m, payload := blob(frame, byte(p.last+1))
			p.push(m, payload)
		}
	}
	near, far := net.Pipe()
	p.conn = near
	// A full chunk and one frame of the next, all taken by the writer's
	// first round.
	push(perChunk + 1)
	first := p.log[0]
	tr := &Transport{cfg: Config{WriteTimeout: 30 * time.Second}}
	wrote := make(chan error, 1)
	go func() { wrote <- tr.writeFrames(p, near) }()
	t.Cleanup(func() {
		p.mu.Lock()
		p.closed = true
		p.cond.Signal()
		p.mu.Unlock()
		far.Close()
		<-wrote
	})

	far.SetDeadline(time.Now().Add(30 * time.Second))
	c := &rawConn{t: t, conn: far, fb: newFrameBuf()}
	read := func(from, to int) {
		t.Helper()
		for want := from; want <= to; want++ {
			m, seq := c.next()
			got := m.Payload.([]byte)
			if seq != uint64(want) || !bytes.Equal(got, bytes.Repeat([]byte{byte(want)}, len(got))) {
				t.Fatalf("frame %d arrived as seq %d with payload % x...", want, seq, got[:8])
			}
		}
	}

	read(1, perChunk/2) // the writer is now blocked inside the first chunk
	p.advanceAck(uint64(perChunk))
	push(2*perChunk - 1) // fills the tail and one more chunk
	p.mu.Lock()
	refilled := slices.Contains(p.log, first)
	p.mu.Unlock()
	if refilled {
		t.Error("the log refills a chunk the writer has not finished writing")
	}
	read(perChunk/2+1, 3*perChunk)

	// The second write has returned, so the writer went around between the
	// two and handed the chunk on.
	p.mu.Lock()
	retired := len(p.retired)
	p.mu.Unlock()
	if retired != 0 {
		t.Errorf("%d retired chunks still held back after the write that held them returned", retired)
	}
}

// rawReceiver is a hand-driven receiving end: a listener standing in for
// node 1, so tests decide which frames get acked and when.
type rawReceiver struct {
	t  *testing.T
	ln net.Listener
}

// newRawReceiverT starts node 0 of a two-node deployment whose node 1 is the
// returned raw listener.
func newRawReceiverT(t *testing.T) (*Transport, *rawReceiver) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		ID: 0, Peers: []string{ln0.Addr().String(), ln1.Addr().String()}, Listener: ln0,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		ln1.Close()
	})
	return tr, &rawReceiver{t: t, ln: ln1}
}

type rawConn struct {
	t    *testing.T
	conn net.Conn
	fb   frameBuf
}

// accept takes the sender's next connection and checks its hello.
func (r *rawReceiver) accept() *rawConn {
	r.t.Helper()
	conn, err := r.ln.Accept()
	if err != nil {
		r.t.Fatalf("accept: %v", err)
	}
	r.t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	c := &rawConn{t: r.t, conn: conn, fb: newFrameBuf()}
	body, err := c.fb.readFrom(conn)
	if err != nil || len(body) != 9 || body[0] != frameHello {
		r.t.Fatalf("hello: % x, %v", body, err)
	}
	return c
}

// frame reads one frame: a msg frame decoded, or an ackreq (asked is true).
func (c *rawConn) frame() (m transport.Message, seq uint64, asked bool) {
	c.t.Helper()
	body, err := c.fb.readFrom(c.conn)
	if err != nil {
		c.t.Fatalf("reading frame: %v", err)
	}
	if len(body) == 1 && body[0] == frameAckReq {
		return m, 0, true
	}
	if m, seq, err = decodeMsgFrame(nil, body); err != nil {
		c.t.Fatalf("decoding frame: %v", err)
	}
	return m, seq, false
}

// next reads one msg frame, skipping the ackreq frames a flushing sender puts
// between them.
func (c *rawConn) next() (transport.Message, uint64) {
	c.t.Helper()
	for {
		if m, seq, asked := c.frame(); !asked {
			return m, seq
		}
	}
}

// nextAckReq reads frames up to and including the next ackreq and returns the
// sequence of the last msg frame that came before it (0 if none did).
func (c *rawConn) nextAckReq() (lastSeq uint64) {
	c.t.Helper()
	for {
		_, seq, asked := c.frame()
		if asked {
			return lastSeq
		}
		lastSeq = seq
	}
}

func (c *rawConn) ack(cum uint64) {
	c.t.Helper()
	if _, err := c.conn.Write(appendAckFrame(nil, cum)); err != nil {
		c.t.Fatalf("writing ack: %v", err)
	}
}

// awaitPeer polls the peer's state, under its lock, until cond holds.
func awaitPeer(t *testing.T, p *peer, cond func() bool) {
	t.Helper()
	if !eventually(func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return cond()
	}) {
		t.Fatal("peer never reached the awaited state")
	}
}

// TestReplayStartsAtFirstUnackedFrame drives a real sender against a raw
// receiver: frames of awkward sizes (one filling its chunk exactly, one larger
// than a chunk), an ack that lands in the middle of a chunk, then a dropped
// connection. The replay on the new connection must begin with exactly the
// first unacked frame, byte-exact, and Diag.Replayed counts frames.
func TestReplayStartsAtFirstUnackedFrame(t *testing.T) {
	tr, recv := newRawReceiverT(t)
	p := tr.peers[1]
	sizes := []int{100, 200, chunkSize - 300, 150, chunkSize + 1, 120, 130}
	for i, size := range sizes {
		m, payload := blob(size, byte('a'+i))
		m.Payload = payload
		if err := tr.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	check := func(c *rawConn, from int) {
		t.Helper()
		for i := from; i < len(sizes); i++ {
			m, seq := c.next()
			got := m.Payload.([]byte)
			if seq != uint64(i+1) || len(got) != sizes[i]-msgFrameSize(1, "tcpblob", nil) || got[0] != byte('a'+i) || got[len(got)-1] != byte('a'+i) {
				t.Fatalf("frame %d on the wire: seq %d, %d payload bytes of %q", i+1, seq, len(got), got[0])
			}
		}
	}

	c1 := recv.accept()
	check(c1, 0)
	if got := tr.Pending(0, 1); got != 0 {
		t.Fatalf("Pending = %d with everything on the wire", got)
	}
	if tr.Flush(20 * time.Millisecond) {
		t.Fatal("Flush reported drained with nothing acked")
	}
	total := 0
	for _, size := range sizes {
		total += size
	}
	if d := tr.Diag(); d.LogBytes != uint64(total) {
		t.Fatalf("LogBytes = %d with nothing acked, want the %d bytes sent", d.LogBytes, total)
	}
	c1.ack(2) // mid-chunk: frames 1..3 share the first chunk
	awaitPeer(t, p, func() bool { return p.base == 2 })
	if d := tr.Diag(); d.LogBytes != uint64(total-sizes[0]-sizes[1]) {
		t.Fatalf("LogBytes = %d after the ack of two frames, want %d", d.LogBytes, total-sizes[0]-sizes[1])
	}

	tr.DropConn(1)
	c2 := recv.accept()
	check(c2, 2)
	if d := tr.Diag(); d.Replayed != uint64(len(sizes)-2) || d.Dials != 2 {
		t.Fatalf("diag %+v, want %d frames replayed over 2 dials", d, len(sizes)-2)
	}
	if tr.Flush(20 * time.Millisecond) {
		t.Fatal("Flush reported drained with the replay unacked")
	}
	c2.ack(uint64(len(sizes)))
	if !tr.Flush(10 * time.Second) {
		t.Fatal("Flush timed out after the final ack")
	}

	if d := tr.Diag(); d.LogBytes != 0 {
		t.Fatalf("LogBytes = %d with everything acked", d.LogBytes)
	}
}

// TestPendingCountsFramesNotYetOnAConnection: with the peer unreachable
// every send is pending; once a connection carries them none is, though
// Flush still waits for the ack.
func TestPendingCountsFramesNotYetOnAConnection(t *testing.T) {
	// Reserve node 1's address, then close it so dials are refused.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	tmp.Close()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		ID: 0, Peers: []string{ln0.Addr().String(), addr}, Listener: ln0,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 7; i++ {
		if err := tr.Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(i), Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Pending(0, 1); got != 7 {
		t.Fatalf("Pending = %d with no connection, want 7", got)
	}
	if tr.Flush(10 * time.Millisecond) {
		t.Fatal("Flush reported drained with the peer down")
	}
	ln1, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln1.Close()
	c := (&rawReceiver{t: t, ln: ln1}).accept()
	for want := uint64(1); want <= 7; want++ {
		if _, seq := c.next(); seq != want {
			t.Fatalf("seq %d, want %d", seq, want)
		}
	}
	if got := tr.Pending(0, 1); got != 0 {
		t.Fatalf("Pending = %d after the frames crossed, want 0", got)
	}
	c.ack(7)
	if !tr.Flush(10 * time.Second) {
		t.Fatal("Flush timed out after the ack")
	}
}

// TestFlushAsksForAck: the receiver acknowledges unasked only every ackEvery
// bytes, so Flush on a channel holding one small unacked frame must ask — an
// ackreq, behind the last data frame in the same stream — and must ask again on
// a new connection when the one that carried the request dies unanswered.
func TestFlushAsksForAck(t *testing.T) {
	tr, recv := newRawReceiverT(t)
	if err := tr.Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: uint64(7), Size: 8}); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan bool, 1)
	go func() { flushed <- tr.Flush(30 * time.Second) }()

	c1 := recv.accept()
	if last := c1.nextAckReq(); last != 1 {
		t.Fatalf("first connection: ackreq behind frame %d, want behind frame 1", last)
	}
	// The request is never answered: the connection dies instead.
	tr.DropConn(1)
	c2 := recv.accept()
	if last := c2.nextAckReq(); last != 1 {
		t.Fatalf("after the reconnect: ackreq behind frame %d, want behind the replayed frame 1", last)
	}
	select {
	case <-flushed:
		t.Fatal("Flush returned with nothing acked")
	default:
	}
	c2.ack(1)
	if !<-flushed {
		t.Fatal("Flush reported not drained after the ack it asked for")
	}
	if d := tr.Diag(); d.LogBytes != 0 || d.Replayed != 1 {
		t.Fatalf("diag %+v, want nothing held and the one frame replayed", d)
	}
}

// TestFlushDoesNotWaitForTheThreshold is the same property against a real
// receiver: one frame, far below ackEvery, and Flush returns drained — and
// does so again when the connection is dropped between the send and the
// flush, whether or not the frame had been delivered by then.
func TestFlushDoesNotWaitForTheThreshold(t *testing.T) {
	trs := newLoopbackT(t, 2)
	send := func(v uint64) {
		t.Helper()
		if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: v, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	if !trs[0].Flush(30 * time.Second) {
		t.Fatal("Flush of one small frame timed out: it waited for the byte threshold")
	}
	send(2)
	trs[0].DropConn(1)
	if !trs[0].Flush(30 * time.Second) {
		t.Fatal("Flush after a dropped connection timed out")
	}
	for want := uint64(1); want <= 2; want++ {
		if got := recvT(t, trs[1], 1).Payload.(uint64); got != want {
			t.Fatalf("delivered %d, want %d", got, want)
		}
	}
	if d := trs[0].Diag(); d.LogBytes != 0 {
		t.Fatalf("LogBytes = %d after a successful Flush", d.LogBytes)
	}
	if d := trs[1].Diag(); d.AcksSent == 0 || d.AcksSent > 4 {
		t.Fatalf("receiver sent %d acks for two flushes", d.AcksSent)
	}
}

// TestReplayAfterKillWithLazyAcks bounds what acknowledging on demand costs a
// reconnect. A stream several times ackEvery long is delivered in full, so the
// sender is left holding only frames the receiver has but never acknowledged:
// at most ackEvery bytes and what one read buffer served (LogBytes). The
// connection is then killed. The replay is exactly those frames, every one a
// duplicate the sequence dedup drops, and the stream that follows arrives
// exactly once, in order.
func TestReplayAfterKillWithLazyAcks(t *testing.T) {
	trs := newLoopbackT(t, 2)
	const total, half = 12000, 8000
	// The frames held at the kill are among the last of the first half, whose
	// sequence numbers are all two-byte varints.
	frame := msgFrameSize(half, "tcptest", make([]byte, 8))
	if half*frame < 4*ackEvery {
		t.Fatalf("%d frames of %d bytes do not span several acks", half, frame)
	}
	send := func(lo, hi uint64) {
		t.Helper()
		for v := lo; v < hi; v++ {
			if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: v, Size: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recv := func(lo, hi uint64) {
		t.Helper()
		want := lo
		recvNT(t, trs[1], 1, int(hi-lo), func(m transport.Message) {
			if got := m.Payload.(uint64); got != want {
				t.Errorf("delivered %d, want %d (lost, duplicated, or reordered)", got, want)
			}
			want++
		})
		if t.Failed() {
			t.FailNow()
		}
	}
	send(0, half)
	recv(0, half)
	// Everything is delivered; acks already written may still be on their way.
	heldMax := uint64(ackEvery + readBufSize + frame)
	if !eventually(func() bool { return trs[0].Diag().LogBytes <= heldMax }) {
		t.Fatalf("sender holds %d bytes of delivered frames, want <= %d", trs[0].Diag().LogBytes, heldMax)
	}
	held := trs[0].Diag().LogBytes
	if trs[1].Diag().AcksSent == 0 {
		t.Fatal("no ack sent for a stream several times ackEvery long")
	}

	trs[0].DropConn(1)
	send(half, total)
	recv(half, total)
	if !trs[0].Flush(30 * time.Second) {
		t.Fatal("Flush timed out after the reconnect")
	}
	if err := trs[1].Send(transport.Message{From: 1, To: 1, Kind: "marker"}); err != nil {
		t.Fatal(err)
	}
	if m := recvT(t, trs[1], 1); m.Kind != "marker" {
		t.Fatalf("extra delivery after the stream: %+v", m)
	}
	sd, rd := trs[0].Diag(), trs[1].Diag()
	if sd.Dials != 2 || sd.LogBytes != 0 {
		t.Fatalf("sender diag %+v, want 2 dials and nothing held after Flush", sd)
	}
	// Only frames held at the kill are duplicates — an ack still on its way
	// when held was read can only have made them fewer — while frames sent
	// after the drop may have been queued before the redial and ride the same
	// replay.
	if rd.Duplicates > held/uint64(frame) || sd.Replayed < rd.Duplicates || rd.Gaps != 0 {
		t.Fatalf("receiver dropped %d duplicates, sender replayed %d, held %d bytes (%d frames) at the kill, %d gaps",
			rd.Duplicates, sd.Replayed, held, held/uint64(frame), rd.Gaps)
	}
	t.Logf("held at the kill: %d bytes = %d frames; duplicates %d; replayed %d", held, held/uint64(frame), rd.Duplicates, sd.Replayed)
}
