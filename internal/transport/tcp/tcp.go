// Package tcp implements the transport.Transport interface over real TCP
// connections, one mixed-consistency node per OS process. (A Fleet is n such
// nodes on loopback inside one OS process, behind one Transport that serves
// them all; it adds routing and nothing to the channel described here.)
//
// The paper's runtime assumes exactly one thing of its network: reliable
// FIFO channels between every ordered pair of processes (Section 6). A TCP
// connection gives FIFO bytes between two endpoints, so the backend opens
// one connection per ordered pair: the channel i -> j is the connection
// dialed by i to j's listener, carrying only i's messages to j, with j's
// cumulative acknowledgements flowing back on the same socket. Deliveries
// from different senders arrive on different connections and interleave
// arbitrarily, exactly like the simulated fabric's per-pair queues.
//
// Reliability across connection failures comes from a sequence/ack layer on
// top of TCP: every message on a channel carries a per-channel sequence
// number, the sender keeps each message buffered until the receiver's
// cumulative ack covers it, and after a reconnect the sender replays the
// unacked suffix. The receiver delivers exactly the next sequence number,
// drops duplicates, and hangs up on a gap (counted in Diag.Gaps) so that the
// sender replays rather than a message going missing; a next frame that fails
// to decode is dropped but consumes its number (Diag.DecodeErrors), since
// replaying it would fail again. The channel stays FIFO
// and exactly-once no matter how many times the underlying socket is torn
// down and re-established. A connection supervisor per peer redials with
// exponential backoff and jitter; sends never block (they append to the
// unbounded per-peer replay log, as the non-blocking writes of Section 3
// require).
//
// Acknowledgements are sent on demand. The receiver writes its cumulative ack
// only once it has handled every frame one read returned, before it reads
// again or waits for the socket — so the frames of one read share an ack — and
// only when one of three things holds: (a) at least ackEvery
// (chunkSize/2) bytes of frames it delivered on the connection are
// unacknowledged; (b) the sender asked, with an ackreq frame, which Flush has
// the writer goroutine append behind the unwritten frames and asks again on
// every poll, so a request lost with its connection is repeated on the next;
// (c) it just dropped a duplicate, which means the sender's idea of what was
// delivered is behind. Nothing else draws an ack while the channel is up: a
// lone frame on a quiet channel costs the sender one write and the receiver
// one read, and nobody a write and a read for an ack nothing waits for. The
// price is bounded. A sender holds at most ackEvery bytes of frames the
// receiver already delivered, plus one read's worth and what is in flight, per
// channel (Diag.LogBytes); a reconnect replays at most that much into the
// receiver's sequence dedup; and Flush, which asks, never waits for the byte
// threshold.
// One ack is sent unasked at the very end: a transport that closes
// acknowledges what each inbound connection delivered as its last word on it,
// since nobody will be there to answer a later ackreq (see Close).
//
// The sender's replay log is a list of fixed-capacity chunks (64 KiB, or one
// frame's size if larger) into which Send encodes frames back to back; the
// writer goroutine hands the unwritten byte range — normally one slice — to
// the kernel in one write, and an ack retires the chunks it fully covers.
// Retired chunks are filled again, but only after the writer has moved them
// to the channel's free list (or, past maxFreeChunks, to a pool), which it
// does between two writes: an ack may cover a chunk the writer is still
// handing to the kernel (the receiver got those frames on an earlier
// connection), and that chunk's bytes must not change until the write
// returns. That one rule is the whole protocol between acks and the writer. A
// one-off chunk is never reused; a streaming channel allocates no chunk once
// warm.
//
// Accounting lives in the channel, as on the simulated fabric: each peer keeps
// a per-kind table (network.KindCounts) bumped inside the hold push takes
// anyway, and Stats sums them. A node never sends to itself: a send to self
// is an ErrInvalidNode, as on the simulated fabric.
//
// The receiving side of a connection is one goroutine that owns everything it
// needs to turn bytes into messages: the read buffer, the acknowledgement
// state, and a transport.ConnDecoder through which the payload codecs keep
// per-connection decode state (internal/dsm carves received updates and their
// timestamps from slabs there; location names are the receiving node's, which
// sees each frame once, after the sequence dedup). Decoded messages
// go to the node's network.Inbox, the burst queue the simulated fabric
// delivers into as well.
//
// Both ends read their socket the same way (readFrames): one read system call
// fills the connection's 4 KiB buffer (readBufSize) as far as the socket
// allows, every complete frame in it is handled in place, and a read that did
// not fill the buffer is followed by a wait for the poller, not by the read
// that would find the socket empty. A frame larger than the buffer is read
// into a one-off buffer of its own size. Since a peer's FIN or reset can hide
// behind the last bytes such a read returned, an inbound connection's reader
// also reads every probeEvery (50 ms) whatever the poller says. Writes re-arm
// the connection's write deadline only when less than half of WriteTimeout is
// left (writeDeadline).
//
// Wire format (fixed integers big-endian, encoding/binary; uvarint is its
// minimal unsigned varint): every frame is a uint32 body length followed by
// the body; the body's first byte is the frame type.
//
//	hello  1 | u32 magic "MXD3" | u32 senderID     (dialer's first frame)
//	msg    2 | uvarint seq | uvarint kindLen | kind | payload
//	ack    3 | u64 cumSeq                          (acceptor -> dialer)
//	ackreq 4                                       (dialer asks for an ack)
//
// A msg frame carries nothing the receiver already knows: the sender is the
// connection's (its hello named it), the destination is the receiver, and the
// payload runs to the end of the body the length prefix delimits. A received
// message's Size is its payload's length, which for the runtime's updates is
// the Size their sender counted (see dsm's encodedSize). The hello magic names
// the format: a peer speaking another is refused at its first frame.
//
// A receiver skips frame types it does not know and an ackreq whose body is
// not exactly the type byte. Every node of a deployment runs the same build:
// a sender that never asks would wait in Flush for acks this receiver sends
// only every ackEvery bytes.
//
// Payload encodings are the per-kind codecs registered in transport's registry
// by internal/dsm and internal/syncmgr.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
)

// Frame types.
const (
	frameHello  = 1
	frameMsg    = 2
	frameAck    = 3
	frameAckReq = 4
)

// ackreqFrame is the whole ackreq frame: a one-byte body, the type.
var ackreqFrame = []byte{0, 0, 0, 1, frameAckReq}

// helloMagic guards against a stranger dialing the port, and against a peer
// that speaks another version of the frame format.
const helloMagic = 0x4d584433 // "MXD3"

// maxFrame bounds a frame body; larger frames indicate a corrupt stream.
const maxFrame = 1 << 26

// Config configures a TCP transport for one node.
type Config struct {
	// ID is this process's node identity, 0..len(Peers)-1. Required.
	ID int
	// Peers lists every node's address, indexed by node ID; Peers[ID] is
	// the local listen address. Required.
	Peers []string
	// Listener, when non-nil, is used instead of listening on Peers[ID] —
	// for tests and port-0 deployments that bind first and exchange
	// addresses afterwards. The connections it accepts must expose their
	// file descriptor (syscall.Conn), as *net.TCPConn does.
	Listener net.Listener
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one write: a write not done between WriteTimeout/2
	// and WriteTimeout after it started (the deadline is re-armed only once
	// less than half of it is left) fails, so a stalled peer counts as a
	// failed connection and triggers a redial (default 10s).
	WriteTimeout time.Duration
	// BackoffBase and BackoffMax shape the dial supervisor's exponential
	// backoff (defaults 25ms and 1s). Each retry sleeps a uniformly random
	// duration in [b/2, b), with b doubling up to BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter (deterministic per (Seed, ID, peer)).
	Seed int64
	// Logf, when non-nil, receives supervisor diagnostics (dial failures,
	// decode errors). Silent by default.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Diag counts supervisor and decode events, for tests and operational
// visibility. The JSON tags are its keys in the metrics registry's "net"
// section, where a zero count is left out.
type Diag struct {
	// Dials counts successful outbound connections (first connects and
	// reconnects).
	Dials uint64 `json:"dials,omitempty"`
	// DialFailures counts failed connection attempts.
	DialFailures uint64 `json:"dialFailures,omitempty"`
	// Replayed counts messages retransmitted after a reconnect.
	Replayed uint64 `json:"replayed,omitempty"`
	// Duplicates counts received messages dropped by sequence dedup.
	Duplicates uint64 `json:"duplicates,omitempty"`
	// DecodeErrors counts inbound msg frames dropped as undecodable. Such a
	// frame still consumes its sequence number, so the channel goes on past
	// it; one too short to carry a sequence number closes its connection.
	DecodeErrors uint64 `json:"decodeErrors,omitempty"`
	// Gaps counts inbound connections closed because a frame skipped a
	// sequence number. The sender then replays from the cumulative ack, so a
	// gap costs a reconnect, never a message; any non-zero count is a sender
	// bug.
	Gaps uint64 `json:"gaps,omitempty"`
	// AcksSent counts the cumulative acks this node, as a receiver, wrote to
	// its inbound connections.
	AcksSent uint64 `json:"acksSent,omitempty"`
	// LogBytes is the size right now of the frames this node, as a sender,
	// holds in its replay logs because no ack has covered them: what a
	// reconnect of every channel would replay, and the memory that sending
	// acks on demand trades for the saved round trips.
	LogBytes uint64 `json:"logBytes,omitempty"`
}

// Transport is a TCP-backed transport.Transport serving one local node.
type Transport struct {
	id  int
	n   int
	cfg Config
	ln  net.Listener

	inbox *network.Inbox
	peers []*peer // indexed by node ID; peers[id] is nil

	// lastSeq[j] is the highest sequence delivered from sender j; it
	// outlives individual connections so replays dedup correctly.
	rmu     sync.Mutex
	lastSeq []uint64

	dials        atomic.Uint64
	dialFailures atomic.Uint64
	replayed     atomic.Uint64
	duplicates   atomic.Uint64
	decodeErrors atomic.Uint64
	gaps         atomic.Uint64
	acksSent     atomic.Uint64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// ErrInvalidNode is returned for out-of-range node IDs.
var ErrInvalidNode = errors.New("tcp: invalid node id")

var errConnGone = errors.New("tcp: connection replaced or transport closed")

// New creates the transport: it starts listening for its peers and starts
// one connection supervisor per remote node. Dialing is lazy only in the
// sense that failures are retried forever with backoff; peers may come up
// in any order, minutes apart. Callers must Close the transport.
func New(cfg Config) (*Transport, error) {
	cfg.fill()
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("tcp: empty peer list")
	}
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("tcp: id %d with %d peers: %w", cfg.ID, n, ErrInvalidNode)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Peers[cfg.ID], err)
		}
	}
	t := &Transport{
		id:      cfg.ID,
		n:       n,
		cfg:     cfg,
		ln:      ln,
		inbox:   network.NewInbox(),
		peers:   make([]*peer, n),
		lastSeq: make([]uint64, n),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	for j := 0; j < n; j++ {
		if j == cfg.ID {
			continue
		}
		p := newPeer(j, cfg.Peers[j])
		t.peers[j] = p
		t.wg.Add(1)
		go t.runPeer(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Nodes returns the number of nodes the transport connects.
func (t *Transport) Nodes() int { return t.n }

// Send enqueues m for FIFO delivery to m.To. It never blocks: the message
// is appended to the peer's unbounded replay log. The error is non-nil only
// for invalid node IDs — this node's own among them — or payloads the codec
// registry cannot encode.
func (t *Transport) Send(m transport.Message) error {
	if m.From != t.id {
		return fmt.Errorf("tcp: send from %d on node %d: %w", m.From, t.id, ErrInvalidNode)
	}
	if m.To < 0 || m.To >= t.n || m.To == t.id {
		return fmt.Errorf("tcp: send %d->%d: %w", m.From, m.To, ErrInvalidNode)
	}
	payload, err := transport.EncodePayload(transport.GetBuf(), m.Kind, m.Payload)
	if err != nil {
		transport.PutBuf(payload)
		return fmt.Errorf("tcp: send %d->%d kind %q: %w", m.From, m.To, m.Kind, err)
	}
	t.peers[m.To].push(m, payload)
	transport.PutBuf(payload) // push copied it into the replay log
	// The payload object's pooled internals (for example a batch's entry
	// slice) are fully captured in the encoding; hand them back.
	transport.RecyclePayload(m.Kind, m.Payload)
	return nil
}

// Broadcast sends to every node except the sender.
func (t *Transport) Broadcast(from int, kind string, payload any, size int) error {
	if from != t.id {
		return fmt.Errorf("tcp: broadcast from %d on node %d: %w", from, t.id, ErrInvalidNode)
	}
	enc, err := transport.EncodePayload(transport.GetBuf(), kind, payload)
	if err != nil {
		transport.PutBuf(enc)
		return fmt.Errorf("tcp: broadcast kind %q: %w", kind, err)
	}
	for to := 0; to < t.n; to++ {
		if to == from {
			continue
		}
		t.peers[to].push(transport.Message{From: from, To: to, Kind: kind, Payload: payload, Size: size}, enc)
	}
	transport.PutBuf(enc)
	transport.RecyclePayload(kind, payload)
	return nil
}

// Recv blocks until a message for the local node is delivered. Recv for any
// other node returns false immediately: a TCP transport instance serves
// exactly one process.
func (t *Transport) Recv(node int) (transport.Message, bool) {
	if node != t.id {
		return transport.Message{}, false
	}
	return t.inbox.Pop()
}

// Pending reports the number of messages queued locally for the channel
// from -> to and not yet handed to the kernel. Only outbound channels of
// the local node are visible.
func (t *Transport) Pending(from, to int) int {
	if from != t.id || to < 0 || to >= t.n || to == t.id {
		return 0
	}
	p := t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.last - p.sent)
}

// Stats returns a snapshot of the accounting counters: the sum of every
// channel's table, the same shape the simulated
// fabric reports. On a distributed transport only the local node's sends are
// visible; per-experiment totals are the sum over all processes' snapshots.
func (t *Transport) Stats() transport.Stats {
	s := network.NewStats(t.n)
	t.addTo(&s, nil)
	return s
}

// Diag returns a snapshot of the supervisor and decode counters.
func (t *Transport) Diag() Diag {
	var d Diag
	t.addTo(nil, &d)
	return d
}

// addTo adds this node's message accounting to s and its link diagnostics
// to d; either may be nil. A Fleet's snapshots are the sums of its nodes'.
func (t *Transport) addTo(s *transport.Stats, d *Diag) {
	if d != nil {
		d.Dials += t.dials.Load()
		d.DialFailures += t.dialFailures.Load()
		d.Replayed += t.replayed.Load()
		d.Duplicates += t.duplicates.Load()
		d.DecodeErrors += t.decodeErrors.Load()
		d.Gaps += t.gaps.Load()
		d.AcksSent += t.acksSent.Load()
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if s != nil {
			p.kinds.AddTo(s, t.id)
		}
		if d != nil {
			d.LogBytes += uint64(p.unacked)
		}
		p.mu.Unlock()
	}
}

// Flush blocks until every peer has acknowledged every message sent so far
// or the timeout elapses, whichever is first. It reports whether all
// channels drained. Distributed deployments call it before Close so the
// tail of the conversation (final barrier releases, lock handoffs) reaches
// peers that still need it; Close itself drops unacked messages.
//
// A receiver acknowledges unasked only every ackEvery bytes, so Flush asks:
// the writer goroutine sends an ackreq behind whatever it has not written yet.
func (t *Transport) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	drained := true
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		for p.base < p.last && !p.closed && time.Now().Before(deadline) {
			// Ask on every poll, not once: a request written to a connection
			// that then died is repeated on the next one. And poll, because an
			// ack wakes the wait but a dead peer never sends one.
			p.ackreq = true
			p.cond.Signal()
			w := time.AfterFunc(10*time.Millisecond, p.acked.Broadcast)
			p.acked.Wait()
			w.Stop()
		}
		if p.base < p.last {
			drained = false
		}
		p.mu.Unlock()
	}
	return drained
}

// Close shuts the transport down: stops the supervisors, closes every
// connection and the listener, and unblocks receivers. Messages not yet
// acked by their destination are dropped, like the fabric's undelivered
// queue contents at Close. Every inbound connection gets a last ack for what
// it delivered, so a peer that flushes after this node has gone is not left
// waiting for an answer to a request nobody can receive. Close is idempotent
// and waits for all internal goroutines to exit.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.done)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.closed = true
			conn := p.conn
			p.cond.Signal()
			p.acked.Broadcast()
			p.mu.Unlock()
			if conn != nil {
				conn.Close() // not under p.mu: see DropConn
			}
		}
		// Inbound connections are not closed from here: their readers are
		// kicked out of the read they are blocked in and close the
		// connections themselves, after a last ack (serveConn).
		t.connMu.Lock()
		for c := range t.conns {
			c.SetReadDeadline(time.Unix(1, 0))
		}
		t.connMu.Unlock()
		t.wg.Wait()
		t.inbox.Close()
	})
}

// runPeer is the connection supervisor for one outbound channel: dial with
// exponential backoff and jitter, replay the unacked suffix, stream frames,
// and start over whenever the connection dies.
func (t *Transport) runPeer(p *peer) {
	defer t.wg.Done()
	backoff := t.cfg.BackoffBase
	rng := rand.New(rand.NewSource(t.cfg.Seed ^ int64(t.id)*104729 ^ int64(p.to)*7919))
	for {
		select {
		case <-t.done:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
		if err != nil {
			t.dialFailures.Add(1)
			t.cfg.Logf("tcp: node %d dial %d (%s): %v", t.id, p.to, p.addr, err)
			half := backoff / 2
			sleep := half + time.Duration(rng.Int63n(int64(half)+1))
			select {
			case <-time.After(sleep):
			case <-t.done:
				return
			}
			if backoff < t.cfg.BackoffMax {
				backoff *= 2
				if backoff > t.cfg.BackoffMax {
					backoff = t.cfg.BackoffMax
				}
			}
			continue
		}
		if err := t.writeHello(conn); err != nil {
			t.dialFailures.Add(1)
			conn.Close()
			continue
		}
		t.dials.Add(1)
		backoff = t.cfg.BackoffBase

		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conn = conn
		// Frames the dead connection carried but the receiver never acked go
		// out again on the fresh one.
		replay := p.sent - p.base
		p.seek()
		t.replayed.Add(replay)
		p.mu.Unlock()

		ackDone := make(chan struct{})
		go t.readAcks(p, conn, ackDone)
		err = t.writeFrames(p, conn)
		conn.Close()
		<-ackDone
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.mu.Unlock()
		if err != nil && !errors.Is(err, errConnGone) {
			t.cfg.Logf("tcp: node %d channel to %d: %v", t.id, p.to, err)
		}
	}
}

func (t *Transport) writeHello(conn net.Conn) error {
	frame := appendHelloFrame(transport.GetBuf(), t.id)
	conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	_, err := conn.Write(frame)
	transport.PutBuf(frame)
	return err
}

// writeFrames streams the replay log to the connection until it fails, is
// replaced, or the transport closes. Each round takes the whole unwritten
// byte range of the log — one slice of the tail chunk, or a few when a
// backlog spans chunks — with an ackreq behind it if Flush asked for one, and
// hands it to the kernel as one (vectored) write, so a burst of sends costs
// one syscall and no copy.
func (t *Transport) writeFrames(p *peer, conn net.Conn) error {
	deadline := writeDeadline{timeout: t.cfg.WriteTimeout}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for p.sent == p.last && !p.ackreq && p.conn == conn && !p.closed {
			p.cond.Wait()
		}
		if p.closed || p.conn != conn {
			return errConnGone
		}
		// The last write has returned and the next has not taken its slices:
		// chunks acked since may be filled again.
		p.recycle()
		p.wbatch = p.wbatch[:0]
		if p.sent < p.last {
			p.wbatch = p.takeUnwritten(p.wbatch)
		}
		if p.ackreq && p.base < p.last {
			p.wbatch = append(p.wbatch, ackreqFrame)
		}
		p.ackreq = false
		if len(p.wbatch) == 0 {
			continue // asked for an ack of nothing: the ack came first
		}
		p.mu.Unlock()

		deadline.arm(conn)
		err := p.writeBatch(conn)

		p.mu.Lock()
		if err != nil {
			return err
		}
	}
}

// readAcks consumes cumulative acks on an outbound connection. When the
// connection fails it tears it down so the writer redials.
func (t *Transport) readAcks(p *peer, conn net.Conn, done chan struct{}) {
	defer close(done)
	b := newFrameBuf()
	readFrames(conn, &b, func(body []byte) bool {
		if len(body) == 9 && body[0] == frameAck {
			p.advanceAck(binary.BigEndian.Uint64(body[1:]))
		}
		return true
	}, nil)
	conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.cond.Signal() // the writer, if it is waiting for frames
	p.mu.Unlock()
}

// acceptLoop serves inbound connections until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.connMu.Lock()
		select {
		case <-t.done:
			t.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		t.conns[conn] = struct{}{}
		t.connMu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// ackEvery is how many bytes of delivered frames a receiver lets go
// unacknowledged on a connection before it acks without being asked: half a
// chunk, so a streaming sender's log stays within a chunk or two.
const ackEvery = chunkSize / 2

// inConn is the receiving state of one inbound connection, owned by its
// serveConn goroutine: the sender, once the hello has named it, the payload
// codecs' decode state, and the acknowledgement state. It sends the
// connection's cumulative ack, when one is due, once every frame of a read is
// handled and before the next read or the wait for the socket — the only point
// where the receiver may block — so the frames of one read share it.
type inConn struct {
	t    *Transport
	conn net.Conn
	// from is the sender, -1 until the hello.
	from int
	dec  transport.ConnDecoder
	// cum is the cumulative sequence to acknowledge and unacked the bytes of
	// frames delivered on this connection since its last ack.
	cum     uint64
	unacked int
	// due says an ack goes out before the next read: unacked reached
	// ackEvery, the sender asked, or a duplicate was dropped.
	due      bool
	deadline writeDeadline
	ackFrame [13]byte // the ack frame's bytes, so sending one allocates nothing
}

// ackIfDue writes the cumulative ack if one is due, and reports whether the
// connection goes on: not once an ack write has failed.
func (c *inConn) ackIfDue() bool {
	return !c.due || c.ack() == nil
}

// ack writes the cumulative ack.
func (c *inConn) ack() error {
	// Counted before it is written: whoever has read this ack off the wire
	// finds it in the count.
	c.t.acksSent.Add(1)
	c.deadline.arm(c.conn)
	_, err := c.conn.Write(appendAckFrame(c.ackFrame[:0], c.cum))
	c.due, c.unacked = false, 0
	return err
}

// serveConn receives one peer's channel: validate the hello, then deliver
// msg frames in sequence order, dropping duplicates from replays and acking
// cumulatively on the same socket (see inConn for when).
func (t *Transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	c := &inConn{t: t, conn: conn, from: -1, deadline: writeDeadline{timeout: t.cfg.WriteTimeout}}
	defer func() {
		select {
		case <-t.done:
			// The transport is closing (Close ended the read). Acknowledge
			// what this connection delivered: the sender can ask no more, and
			// its Flush would otherwise wait out its timeout.
			if c.due || c.unacked > 0 {
				_ = c.ack() // the connection is closed next either way
			}
		default:
		}
		conn.Close()
		t.connMu.Lock()
		delete(t.conns, conn)
		t.connMu.Unlock()
	}()
	b := newFrameBuf()
	r, err := newFrameReader(conn, &b, c.frame, c.ackIfDue)
	if err != nil {
		return
	}
	for t.armProbe(conn) {
		if err := r.run(); !errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
	}
}

// probeEvery bounds how long an inbound connection's reader waits for the
// poller before it reads the socket anyway. readFrames reads once per wake-up,
// and the end of a stream can hide behind the last bytes it read (see there);
// with nothing else left to wake the reader, a sender that has gone would
// leave it parked until Close. The outbound side needs no probe: the writer's
// next write to a connection the receiver closed fails, or draws the reset
// that wakes readAcks.
const probeEvery = 50 * time.Millisecond

// armProbe sets conn's read deadline probeEvery ahead, or reports false when
// the transport is closing: the deadline Close set to kick the reader out must
// stand. It holds connMu, as Close does to set that deadline, so neither can
// overwrite the other.
func (t *Transport) armProbe(conn net.Conn) bool {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	select {
	case <-t.done:
		return false
	default:
	}
	conn.SetReadDeadline(time.Now().Add(probeEvery))
	return true
}

// frame handles one frame of the connection and reports whether the
// connection goes on. Every decode copies what it keeps out of body.
func (c *inConn) frame(body []byte) bool {
	t, from := c.t, c.from
	if from < 0 {
		var ok bool
		c.from, ok = parseHello(body)
		return ok && c.from < t.n && c.from != t.id
	}
	if len(body) == 1 && body[0] == frameAckReq {
		// The connection may have delivered nothing yet (a reconnect whose
		// replay is still to come): the position is the sender's, not the
		// connection's.
		t.rmu.Lock()
		c.cum = t.lastSeq[from]
		t.rmu.Unlock()
		c.due = true
		return true
	}
	if len(body) == 0 || body[0] != frameMsg {
		return true
	}
	seq, rest, ok := msgSeq(body)
	if !ok {
		// Not even a sequence number: there is no telling which frame of the
		// channel this was, so the channel cannot go on.
		t.decodeErrors.Add(1)
		t.cfg.Logf("tcp: node %d from %d: msg frame of %d bytes carries no sequence number; closing the connection",
			t.id, from, len(body))
		return false
	}
	// A frame whose header parses but whose message does not still holds its
	// place in the sequence: it is a duplicate, a gap, or the next frame —
	// consumed and acknowledged, never delivered — exactly as if it had
	// decoded. Dropping it without its number would make the next frame a gap
	// and the sender replay this one forever.
	m, decodeErr := decodeMsg(&c.dec, from, t.id, rest)
	// The sequence test and the inbox push are one critical section: a
	// replaced connection's reader can still be handling its last read while
	// the new connection's reader runs, and whichever claims a sequence number
	// must deliver it before the other claims the next. Lock order rmu -> the
	// inbox's lock; nothing takes them the other way.
	t.rmu.Lock()
	next := t.lastSeq[from] + 1
	if seq == next {
		t.lastSeq[from] = seq
		if decodeErr == nil {
			t.inbox.Push(m)
		}
	}
	c.cum = t.lastSeq[from]
	t.rmu.Unlock()
	switch {
	case seq < next:
		// The sender replayed what was delivered: it is behind, tell it.
		t.duplicates.Add(1)
		c.due = true
	case seq > next:
		// Delivering it would lose next..seq-1 silently. Hang up instead: the
		// sender redials and replays from the cumulative ack.
		t.gaps.Add(1)
		t.cfg.Logf("tcp: node %d from %d: sequence gap, got %d want %d; closing the connection",
			t.id, from, seq, next)
		return false
	default:
		if decodeErr != nil {
			t.decodeErrors.Add(1)
			t.cfg.Logf("tcp: node %d from %d: dropped undecodable frame %d: %v", t.id, from, seq, decodeErr)
		}
		if c.unacked += 4 + len(body); c.unacked >= ackEvery {
			c.due = true
		}
	}
	return true
}

// appendHelloFrame encodes the dialer's first frame.
func appendHelloFrame(dst []byte, sender int) []byte {
	dst = transport.AppendUint32(dst, 9)
	dst = append(dst, frameHello)
	dst = transport.AppendUint32(dst, helloMagic)
	return transport.AppendUint32(dst, uint32(sender))
}

// parseHello reads the sender a hello frame body names; ok is false for any
// other body, a hello with another version's magic included.
func parseHello(body []byte) (sender int, ok bool) {
	if len(body) != 9 || body[0] != frameHello || binary.BigEndian.Uint32(body[1:]) != helloMagic {
		return -1, false
	}
	sender = int(binary.BigEndian.Uint32(body[5:]))
	return sender, sender >= 0
}

// appendAckFrame encodes a cumulative ack.
func appendAckFrame(dst []byte, cum uint64) []byte {
	dst = transport.AppendUint32(dst, 9)
	dst = append(dst, frameAck)
	return transport.AppendUint64(dst, cum)
}

// msgFrameSize is the exact length of the frame appendMsgFrame produces.
func msgFrameSize(seq uint64, kind string, payload []byte) int {
	return 4 + 1 + transport.UvarintLen(seq) + transport.UvarintLen(uint64(len(kind))) + len(kind) + len(payload)
}

// appendMsgFrame encodes one message as a framed msg record.
func appendMsgFrame(dst []byte, seq uint64, kind string, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, frameMsg)
	dst = transport.AppendUvarint(dst, seq)
	dst = transport.AppendUvarintString(dst, kind)
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// msgSeq splits a msg frame body into its sequence number and the rest; ok is
// false when the body does not start with one.
func msgSeq(body []byte) (seq uint64, rest []byte, ok bool) {
	d := transport.NewDecoder(body[1:])
	seq = d.Uvarint()
	return seq, body[len(body)-d.Remaining():], d.Err() == nil
}

// decodeMsg parses what follows a msg frame's sequence number. Kind and
// payload are resolved through dec, the connection's decode state (nil decodes
// statelessly): a kind the connection has carried costs no string, and what a
// payload costs is its codec's business.
func decodeMsg(dec *transport.ConnDecoder, from, to int, rest []byte) (transport.Message, error) {
	d := transport.NewDecoder(rest)
	kind := d.UvarintBytes()
	m := transport.Message{From: from, To: to, Size: d.Remaining()}
	if err := d.Err(); err != nil {
		return m, err
	}
	var err error
	m.Kind, m.Payload, err = dec.DecodeKindPayload(kind, rest[len(rest)-d.Remaining():])
	return m, err
}
