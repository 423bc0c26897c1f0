package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/dsm"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// rawSender is a hand-driven sending end of a channel: a plain connection to
// a transport's listener that has said hello as node `from`, so tests choose
// exactly which frames arrive, in which writes, on which connection.
type rawSender struct {
	t    *testing.T
	conn net.Conn
	acks frameBuf
}

// readFrom returns the next frame's body, reading r with plain Read calls as
// far as it takes: the test ends' reader, parsing as the transport's does.
func (b *frameBuf) readFrom(r io.Reader) ([]byte, error) {
	for {
		if body, ok, err := b.next(); ok || err != nil {
			return body, err
		}
		n, err := r.Read(b.space())
		b.w += n
		if err != nil {
			return nil, err
		}
	}
}

func dialRaw(t *testing.T, tr *Transport, from int) *rawSender {
	t.Helper()
	conn, err := net.Dial("tcp", tr.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(appendHelloFrame(nil, from)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return &rawSender{t: t, conn: conn, acks: newFrameBuf()}
}

// frames encodes the sequences lo..hi as "tcptest" messages whose payload is
// the sequence number itself.
func (s *rawSender) frames(lo, hi uint64) []byte {
	var out, payload []byte
	for seq := lo; seq <= hi; seq++ {
		payload = transport.AppendUint64(payload[:0], seq)
		out = appendMsgFrame(out, seq, "tcptest", payload)
	}
	return out
}

func (s *rawSender) write(b []byte) {
	s.t.Helper()
	if _, err := s.conn.Write(b); err != nil {
		s.t.Fatalf("raw write: %v", err)
	}
}

// blobFrames encodes the sequences lo..hi as "tcpblob" messages whose frames
// are exactly frameLen bytes long.
func (s *rawSender) blobFrames(lo, hi uint64, frameLen int) []byte {
	var out []byte
	for seq := lo; seq <= hi; seq++ {
		m, payload := blob(frameLen, byte(seq))
		out = appendMsgFrame(out, seq, m.Kind, payload)
	}
	return out
}

// readAck reads one ack frame; ok is false once the receiver hung up (EOF,
// or a reset if it closed with frames of ours unread).
func (s *rawSender) readAck() (cum uint64, ok bool) {
	s.t.Helper()
	body, err := s.acks.readFrom(s.conn)
	if err != nil {
		return 0, false
	}
	if len(body) != 9 || body[0] != frameAck {
		s.t.Errorf("not an ack frame: % x", body)
		return 0, false
	}
	return transport.NewDecoder(body[1:]).Uint64(), true
}

// wantAck reads the next ack on the connection, which must be for cum. Acks
// arrive in the order they were written, so this also says that no other ack
// was written since the last one read.
func (s *rawSender) wantAck(cum uint64, why string) {
	s.t.Helper()
	if got, ok := s.readAck(); !ok || got != cum {
		s.t.Fatalf("%s: next ack on the connection is %d (ok=%v), want %d", why, got, ok, cum)
	}
}

// TestAcksOnDemand pins when the receiver acknowledges. The sender's end is a
// raw connection, so the acks it reads are exactly the acks written, in order:
// lone frames below ackEvery bytes draw none; crossing ackEvery draws exactly
// one, cumulative; an ackreq draws one, with or without anything new to
// report; a dropped duplicate draws one; and a burst far larger than a read
// draws one per ackEvery bytes, not one per read.
func TestAcksOnDemand(t *testing.T) {
	trs := newLoopbackT(t, 2)
	s := dialRaw(t, trs[1], 0)
	// delivered waits until the receiver has handed over everything up to
	// seq, and with that has been through every read before it.
	next := uint64(1)
	delivered := func(seq uint64) {
		t.Helper()
		recvNT(t, trs[1], 1, int(seq+1-next), func(transport.Message) {})
		next = seq + 1
	}
	var acks uint64

	// Lone frames, each delivered before the next is written, well below the
	// threshold: the first ack on the connection is the one asked for.
	const lone = 50
	for seq := uint64(1); seq <= lone; seq++ {
		s.write(s.frames(seq, seq))
		delivered(seq)
	}
	s.write(ackreqFrame)
	s.wantAck(lone, "ackreq after 50 unacknowledged lone frames")
	s.write(ackreqFrame)
	s.wantAck(lone, "ackreq with nothing new")
	acks += 2

	// One frame at a time again, 1 KiB each: the frame that takes the
	// unacknowledged bytes to ackEvery draws an ack for everything so far, and
	// the frames before and after it draw none.
	const frameLen = 1024
	crossing := uint64(lone + ackEvery/frameLen)
	for seq := uint64(lone + 1); seq <= crossing+1; seq++ {
		s.write(s.blobFrames(seq, seq, frameLen))
		delivered(seq)
	}
	s.wantAck(crossing, "crossing ackEvery")
	s.write(ackreqFrame)
	s.wantAck(crossing+1, "ackreq after the crossing")
	acks += 2

	// A duplicate means the sender is behind: it is told where the receiver
	// is, at once.
	s.write(s.frames(3, 3))
	s.wantAck(crossing+1, "duplicate")
	acks++
	if d := trs[1].Diag(); d.Duplicates != 1 || d.AcksSent != acks {
		t.Fatalf("diag %+v, want 1 duplicate and %d acks sent", d, acks)
	}

	// A burst: many reads, few acks.
	const burst = 5000
	last := crossing + 1 + burst
	stream := append(s.frames(crossing+2, last), ackreqFrame...)
	s.write(stream)
	burstAcks := 0
	for {
		cum, ok := s.readAck()
		if !ok {
			t.Fatalf("connection closed after %d acks", burstAcks)
		}
		burstAcks++
		if cum == last {
			break
		}
	}
	if limit := len(stream)/ackEvery + 1; burstAcks > limit || len(stream) < 3*ackEvery {
		t.Errorf("%d frames (%d bytes) in one write drew %d acks, want <= %d (one per %d bytes and the one asked for)",
			burst, len(stream), burstAcks, limit, ackEvery)
	}
	delivered(last)
	if d := trs[1].Diag(); d.AcksSent != acks+uint64(burstAcks) || d.Gaps != 0 || d.DecodeErrors != 0 {
		t.Fatalf("diag %+v, want %d acks sent, no gaps, no decode errors", d, acks+uint64(burstAcks))
	}
}

// TestMalformedAckReqIsIgnored: a type-4 frame whose body is not exactly the
// type byte is skipped like any unknown frame — it draws no ack and does not
// cost the connection.
func TestMalformedAckReqIsIgnored(t *testing.T) {
	trs := newLoopbackT(t, 2)
	s := dialRaw(t, trs[1], 0)
	s.write(s.frames(1, 1))
	s.write([]byte{0, 0, 0, 2, frameAckReq, 0}) // one byte too many
	s.write(s.frames(2, 2))
	for want := uint64(1); want <= 2; want++ {
		if got := recvT(t, trs[1], 1).Payload.(uint64); got != want {
			t.Fatalf("delivered %d, want %d", got, want)
		}
	}
	s.write(ackreqFrame)
	s.wantAck(2, "well-formed ackreq after the malformed one")
	if d := trs[1].Diag(); d.AcksSent != 1 || d.DecodeErrors != 0 {
		t.Fatalf("diag %+v, want exactly the one ack and no decode error", d)
	}
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
	trs := newLoopbackT(t, 3)
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
	// sit in the inbox ahead of this marker, which a third node sends (node
	// 0's own channel would drop it: the raw streams used its sequence
	// numbers).
	if err := trs[2].Send(transport.Message{From: 2, To: 1, Kind: "marker"}); err != nil {
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

// TestUndecodableFrameConsumesItsSequence: a frame whose header parses but
// whose message does not decode is dropped, and takes its sequence number with
// it, so the frame after it is the next one, not a gap. It used to be dropped
// without its number: the next frame then read as a gap, the connection was
// closed, and the sender replayed the undecodable frame forever. A msg frame
// too short to carry a sequence number cannot be placed at all, and closes
// the connection.
func TestUndecodableFrameConsumesItsSequence(t *testing.T) {
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
	// Seq 1 is a tcptest message with three payload bytes where the codec
	// wants eight; seq 2 is well formed.
	garbage := appendMsgFrame(nil, 1, "tcptest", []byte{1, 2, 3})
	s.write(append(garbage, s.frames(2, 2)...))
	if got := recvT(t, trs[1], 1).Payload.(uint64); got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	// The same connection is still up, and it acknowledges both frames.
	s.write(ackreqFrame)
	s.wantAck(2, "ackreq after the undecodable frame and the next")
	if d := trs[1].Diag(); d.DecodeErrors != 1 || d.Gaps != 0 || d.Duplicates != 0 {
		t.Fatalf("diag %+v, want 1 decode error, no gaps, no duplicates", d)
	}
	logMu.Lock()
	found := false
	for _, l := range logged {
		found = found || strings.Contains(l, "undecodable frame 1")
	}
	logMu.Unlock()
	if !found {
		t.Errorf("decode error not logged; log: %q", logged)
	}

	// A msg frame whose sequence number's varint never ends.
	s = dialRaw(t, trs[1], 0)
	s.write([]byte{0, 0, 0, 3, frameMsg, 0x81, 0x82})
	if cum, ok := s.readAck(); ok {
		t.Fatalf("ack %d after a frame without a sequence number; want the connection closed", cum)
	}
	if d := trs[1].Diag(); d.DecodeErrors != 2 || d.Gaps != 0 {
		t.Fatalf("diag %+v, want 2 decode errors and no gaps", d)
	}
}

// TestUndecodableDefinitionStrandsNothing: the frame that named a location to
// a receiver fails to decode, so the receiver never learns the name. The
// transport consumes the frame's sequence number; the receiving node then
// cannot resolve the later update that refers to the location by ordinal. That
// update counts in MalformedUpdates, applies to neither view, and still takes
// its place in the sender's order and settles, so a count wait over what
// arrived returns and the sender's next location — defined and referred to
// after it — reaches the causal view.
func TestUndecodableDefinitionStrandsNothing(t *testing.T) {
	trs := newLoopbackT(t, 2)
	node, err := dsm.NewNode(dsm.Config{ID: 1, N: 2, Transport: trs[1]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		trs[1].Close()
		node.Close()
	})
	frame := func(seq uint64, u *dsm.Update, corrupt bool) []byte {
		payload, err := transport.EncodePayload(nil, dsm.KindUpdate, u)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			payload[2] = 0 // the flags byte: no operation
		}
		return appendMsgFrame(nil, seq, dsm.KindUpdate, payload)
	}
	upd := func(seq uint64, ord uint32, loc string, value int64) *dsm.Update {
		return &dsm.Update{From: 0, Seq: seq, Op: dsm.OpSet, Loc: loc, Ordinal: ord, Defines: loc != "",
			Value: value, TS: vclock.VC{seq, 0}}
	}
	s := dialRaw(t, trs[1], 0)
	var frames []byte
	frames = append(frames, frame(1, upd(1, 0, "a", 1), true)...)
	frames = append(frames, frame(2, upd(2, 0, "", 2), false)...)
	frames = append(frames, frame(3, upd(3, 1, "b", 3), false)...)
	frames = append(frames, frame(4, upd(4, 1, "", 4), false)...)
	s.write(frames)

	// All four frames settle, the last after the malformed one: b's final
	// value is read below.
	done := make(chan struct{})
	go func() {
		node.WaitCausalApplied([]uint64{4, 0})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the updates that arrived never settled: an unresolvable reference stranded its sender")
	}
	if d := trs[1].Diag(); d.DecodeErrors != 1 || d.Gaps != 0 {
		t.Fatalf("diag %+v, want the one undecodable frame and no gaps", d)
	}
	if got := node.Stats().MalformedUpdates; got != 1 {
		t.Errorf("MalformedUpdates = %d, want 1: the reference to the lost definition", got)
	}
	if pram, causal := node.ReadPRAM("a"), node.ReadCausal("a"); pram != 0 || causal != 0 {
		t.Errorf("a = %d (PRAM), %d (causal): a reference the node cannot resolve applied", pram, causal)
	}
	if got := node.ReadCausal("b"); got != 4 {
		t.Errorf("causal b = %d, want 4", got)
	}
}

// TestCloseAcksWhatWasDelivered: a receiver that closes tells each sender, as
// its last word on the connection, what it delivered — there is nobody left to
// answer an ackreq, and a sender flushing after its peer has gone (the last
// processes of a fleet to exit) would otherwise wait out its timeout. Seen
// from a raw connection it is one cumulative ack and then the hang-up; seen
// from a transport, Flush drains against a closed peer.
func TestCloseAcksWhatWasDelivered(t *testing.T) {
	trs := newLoopbackT(t, 2)
	s := dialRaw(t, trs[1], 0)
	s.write(s.frames(1, 3))
	for i := 0; i < 3; i++ {
		recvT(t, trs[1], 1)
	}
	trs[1].Close()
	s.wantAck(3, "the closing receiver's last word")
	if cum, ok := s.readAck(); ok {
		t.Fatalf("ack %d after the last word; want the connection closed", cum)
	}

	trs = newLoopbackT(t, 2)
	for i := uint64(1); i <= 3; i++ {
		if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: i, Size: 8}); err != nil {
			t.Fatal(err)
		}
		recvT(t, trs[1], 1)
	}
	trs[1].Close()
	if !trs[0].Flush(30 * time.Second) {
		t.Fatal("Flush timed out: the closed receiver never acknowledged what it had delivered")
	}
	if d := trs[1].Diag(); d.AcksSent != 1 {
		t.Fatalf("closed receiver sent %d acks, want the one", d.AcksSent)
	}
}

// readCalls is the number of read system calls the process has made so far
// (/proc/self/io's syscr, bumped by every read(2) of every thread).
func readCalls() (int, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, errors.New("no syscr line in /proc/self/io")
}

// TestLoneFrameCostsOneRead pins what a lone frame costs its receiver: one read
// system call. Frames go one at a time over real loopback, each sent only once
// the one before it has been delivered, and the process's read calls are
// counted around them. A receiver that reads until the socket says it is empty
// pays two per frame; nothing else in the process reads while the frames
// flow — no acks are due, and the sender's ack reader waits on the poller.
func TestLoneFrameCostsOneRead(t *testing.T) {
	if _, err := readCalls(); err != nil {
		t.Skipf("read calls cannot be counted here: %v", err)
	}
	trs := newLoopbackT(t, 2)
	send := func(v uint64) {
		t.Helper()
		if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: "tcptest", Payload: v, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	// The connection is up and has carried a frame before the count starts.
	send(0)
	recvT(t, trs[1], 1)
	// Recv blocks below, with no timer per frame; closing the receiver is what
	// ends a stalled run.
	watchdog := time.AfterFunc(30*time.Second, trs[1].Close)
	defer watchdog.Stop()

	const frames = 200
	before, err := readCalls()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= frames; v++ {
		send(v)
		if m, ok := trs[1].Recv(1); !ok || m.Payload.(uint64) != v {
			t.Fatalf("frame %d: delivered %+v (ok=%v)", v, m.Payload, ok)
		}
	}
	after, err := readCalls()
	if err != nil {
		t.Fatal(err)
	}
	// Slack: reading /proc/self/io takes reads of its own, and each inbound
	// connection's reader probes its socket every probeEvery.
	const slack = 20
	if reads := after - before; reads > frames+slack {
		t.Errorf("%d lone frames cost %d read calls, want <= %d (one each, plus %d)", frames, reads, frames+slack, slack)
	} else {
		t.Logf("%d lone frames cost %d read calls", frames, reads)
	}
	if d := trs[1].Diag(); d.AcksSent != 0 {
		t.Errorf("receiver sent %d acks for %d bytes of lone frames", d.AcksSent, frames*msgFrameSize(frames, "tcptest", make([]byte, 8)))
	}
}

// TestFrameSplitAcrossReads sends frames that do not line up with the
// receiver's reads: one written a byte at a time, a burst whose last frame
// crosses the end of the read buffer, and a frame three times the buffer's
// size. Through a transport, every frame is delivered exactly once and in
// order; through readFrames itself, every frame is handed over whole, the
// oversized one from a buffer of its own size, and the buffer is back to its
// normal size for the frame after it.
func TestFrameSplitAcrossReads(t *testing.T) {
	trs := newLoopbackT(t, 3)
	s := dialRaw(t, trs[1], 0)
	lone := s.frames(1, 1)
	// The burst is frames 2..hi, just enough of them to overrun the buffer, so
	// its last frame straddles the buffer's end.
	var burst []byte
	hi := uint64(1)
	for len(burst) <= readBufSize {
		hi++
		burst = append(burst, s.frames(hi, hi)...)
	}
	big := s.blobFrames(hi+1, hi+1, 3*readBufSize)
	after := s.frames(hi+2, hi+2)
	check := func(m transport.Message, want uint64) {
		t.Helper()
		switch p := m.Payload.(type) {
		case uint64:
			if p != want {
				t.Errorf("delivered %d, want %d", p, want)
			}
		case []byte:
			if len(p) != len(big)-msgFrameSize(hi+1, "tcpblob", nil) || !bytes.Equal(p, bytes.Repeat([]byte{byte(want)}, len(p))) {
				t.Errorf("frame %d: %d payload bytes, not the oversized frame's", want, len(p))
			}
		}
	}
	for i := range lone {
		s.write(lone[i : i+1])
	}
	check(recvT(t, trs[1], 1), 1)
	s.write(burst)
	next := uint64(2)
	recvNT(t, trs[1], 1, int(hi-1), func(m transport.Message) {
		check(m, next)
		next++
	})
	s.write(big)
	check(recvT(t, trs[1], 1), hi+1)
	s.write(after)
	check(recvT(t, trs[1], 1), hi+2)
	// Anything delivered twice would now sit in the inbox ahead of this
	// marker, which a third node sends.
	if err := trs[2].Send(transport.Message{From: 2, To: 1, Kind: "marker"}); err != nil {
		t.Fatal(err)
	}
	if m := recvT(t, trs[1], 1); m.Kind != "marker" {
		t.Fatalf("extra delivery after the stream: %+v", m)
	}
	if d := trs[1].Diag(); d.Duplicates != 0 || d.Gaps != 0 || d.DecodeErrors != 0 {
		t.Fatalf("diag %+v, want no duplicates, gaps or decode errors", d)
	}

	// The same writes, read by readFrames on a plain connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetReadDeadline(time.Now().Add(30 * time.Second))
	type handed struct {
		body []byte
		buf  int // the buffer's size while the frame was handed over
	}
	got := make(chan handed, hi+2)
	done := make(chan error, 1)
	go func() {
		b := newFrameBuf()
		done <- readFrames(r, &b, func(body []byte) bool {
			got <- handed{bytes.Clone(body), len(b.buf)}
			return true
		}, nil)
	}()
	defer func() {
		w.Close()
		if err := <-done; !errors.Is(err, io.EOF) {
			t.Errorf("readFrames ended with %v, want end of stream", err)
		}
	}()
	var want [][]byte
	for _, stream := range [][]byte{lone, burst, big, after} {
		for len(stream) > 0 {
			n := 4 + int(binary.BigEndian.Uint32(stream))
			want = append(want, stream[4:n])
			stream = stream[n:]
		}
	}
	for i := range lone {
		if _, err := w.Write(lone[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, piece := range [][]byte{burst, big, after} {
		if _, err := w.Write(piece); err != nil {
			t.Fatal(err)
		}
	}
	for i, body := range want {
		h := <-got
		if !bytes.Equal(h.body, body) {
			t.Fatalf("frame %d of %d handed over as %d bytes, want %d", i+1, len(want), len(h.body), len(body))
		}
		wantBuf := readBufSize
		if len(body) == len(big)-4 {
			wantBuf = len(big)
		}
		if h.buf != wantBuf {
			t.Errorf("frame %d (%d bytes) handed over from a buffer of %d bytes, want %d", i+1, len(body), h.buf, wantBuf)
		}
	}
}

// TestReceiverNoticesSenderGone: a sender that writes its last frame and hangs
// up before the receiver has read it leaves the end of the stream queued behind
// the frame, and the read that returns the frame does not report it; nor,
// since the poller may fold the two into one wake-up, need anything else. The
// receiver must notice within a probe period or so all the same, and close its
// end of the connection.
func TestReceiverNoticesSenderGone(t *testing.T) {
	trs := newLoopbackT(t, 2)
	for seq := uint64(1); seq <= 5; seq++ {
		s := dialRaw(t, trs[1], 0)
		s.write(s.frames(seq, seq))
		s.conn.(*net.TCPConn).CloseWrite()
		if got := recvT(t, trs[1], 1).Payload.(uint64); got != seq {
			t.Fatalf("delivered %d, want %d", got, seq)
		}
		s.conn.SetReadDeadline(time.Now().Add(40 * probeEvery))
		if body, err := s.acks.readFrom(s.conn); !errors.Is(err, io.EOF) {
			t.Fatalf("connection %d: read % x, %v; want the receiver to hang up", seq, body, err)
		}
	}
}

// TestV1HelloRefused: a peer speaking an earlier wire format — the first
// frame format ("MXDM"), or the second's update payloads ("MXD2") — is refused
// at its hello, whose magic names that format, and nothing it sends after is
// delivered.
func TestV1HelloRefused(t *testing.T) {
	trs := newLoopbackT(t, 3)
	for _, magic := range []string{"MXDM", "MXD2"} {
		conn, err := net.Dial("tcp", trs[1].ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		hello := []byte("\x00\x00\x00\x09\x01" + magic + "\x00\x00\x00\x00")
		if _, err := conn.Write(append(hello, appendMsgFrame(nil, 1, "tcptest", transport.AppendUint64(nil, 7))...)); err != nil {
			t.Fatalf("%s: write: %v", magic, err)
		}
		b := newFrameBuf()
		if body, err := b.readFrom(conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: read % x, %v; want the receiver to hang up on the hello", magic, body, err)
		}
		conn.Close()
		// Anything delivered would sit in the inbox ahead of this marker,
		// which a third node sends.
		if err := trs[2].Send(transport.Message{From: 2, To: 1, Kind: "marker"}); err != nil {
			t.Fatal(err)
		}
		if m := recvT(t, trs[1], 1); m.Kind != "marker" {
			t.Fatalf("a %s peer's frame was delivered: %+v", magic, m)
		}
	}
}

// TestLoneUpdateFrameSize pins what a msg frame adds to an update's payload:
// the length prefix, the type, the channel's sequence number and the kind,
// at most 16 bytes for the first 1<<28 frames of a channel, where the first
// format spent 39. It is measured on the frame a real Send leaves in the
// replay log, which nothing acks here.
func TestLoneUpdateFrameSize(t *testing.T) {
	tr, _ := newRawReceiverT(t)
	u := &dsm.Update{From: 0, Seq: 1, Op: dsm.OpSet, Loc: "k", Value: 1}
	payload, err := transport.EncodePayload(nil, dsm.KindUpdate, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(transport.Message{From: 0, To: 1, Kind: dsm.KindUpdate, Payload: u, Size: len(payload)}); err != nil {
		t.Fatal(err)
	}
	if header := int(tr.Diag().LogBytes) - len(payload); header > 16 {
		t.Errorf("a lone update's frame adds %d bytes to its %d-byte payload, want <= 16", header, len(payload))
	}
	for _, seq := range []uint64{1, 1 << 7, 1 << 14, 1 << 21, 1<<28 - 1} {
		if header := msgFrameSize(seq, dsm.KindUpdate, payload) - len(payload); header > 16 {
			t.Errorf("frame %d of a channel adds %d bytes to an update, want <= 16", seq, header)
		}
	}
}
