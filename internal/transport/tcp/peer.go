package tcp

import (
	"encoding/binary"
	"io"
	"net"
	"sync"

	"mixedmem/internal/transport"
)

// chunkSize is the capacity of one chunk of a peer's replay log. A frame
// larger than this gets a chunk of exactly its own size.
const chunkSize = 64 << 10

// chunk is one segment of a peer's replay log: n whole msg frames back to
// back in b, carrying the sequences first .. first+n-1. b is allocated at
// its final capacity and only ever appended to within it, so bytes already in
// a chunk never move and the writer goroutine can hand them to the kernel
// while push appends behind them.
type chunk struct {
	b     []byte
	first uint64
	n     int
}

// peer is the outbound channel state for one remote node.
type peer struct {
	to   int
	addr string

	mu sync.Mutex
	// cond wakes the writer goroutine (frames to write, an ack to ask for, the
	// connection replaced, the transport closed); acked wakes Flush callers
	// (base moved, the transport closed). They are separate so that neither
	// kind of waiter can swallow a Signal meant for the other.
	cond  *sync.Cond
	acked *sync.Cond
	// log is the replay buffer: every frame the receiver has not acked, in
	// sequence order, packed into chunks (oldest first). The last chunk is
	// the tail push appends to; it stays in the log even when fully acked.
	// Chunks are not pooled: advanceAck just drops its reference to a fully
	// acked chunk and the garbage collector reclaims it once the writer's
	// slices of it are gone too, so an ack racing an in-flight write needs no
	// protocol.
	log []*chunk
	// base is the receiver's cumulative ack, sent the highest sequence handed
	// to the kernel on the current connection, last the highest sequence
	// assigned: base <= sent <= last.
	base, sent, last uint64
	// aoff locates frame base+1, the first the receiver has not acked: byte
	// aoff of log[0]. unacked is the size of the frames from there on, base+1
	// .. last.
	aoff, unacked int
	// wi and woff locate frame sent+1, the writer's position: byte woff of
	// log[wi]. The end of one chunk and the start of the next are the same
	// position, for both cursors.
	wi, woff int
	// ackreq tells the writer goroutine to send an ackreq frame behind
	// whatever it writes next (Flush).
	ackreq bool
	conn   net.Conn
	closed bool
	// wbatch is the writer goroutine's reusable slice-of-slices scratch and
	// wbufs the net.Buffers header its write consumes (see writeBatch).
	// runPeer guarantees a single writer, so only that goroutine touches them.
	wbatch [][]byte
	wbufs  net.Buffers
}

func newPeer(to int, addr string) *peer {
	p := &peer{to: to, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	p.acked = sync.NewCond(&p.mu)
	return p
}

// push appends m as a msg frame carrying the channel's next sequence number
// to the tail of the replay log.
func (p *peer) push(m transport.Message, payload []byte) {
	size := msgFrameSize(m.Kind, payload)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	var tail *chunk
	if n := len(p.log); n > 0 {
		tail = p.log[n-1]
	}
	if tail == nil || len(tail.b)+size > cap(tail.b) {
		tail = &chunk{b: make([]byte, 0, max(chunkSize, size)), first: p.last + 1}
		p.log = append(p.log, tail)
	}
	p.last++
	tail.b = appendMsgFrame(tail.b, p.last, m, payload)
	tail.n++
	p.unacked += size
	p.cond.Signal()
}

// seek moves the writer's position to the first unacked frame: back after a
// reconnect, forward when an ack covers frames this connection has not
// carried. Caller holds p.mu.
func (p *peer) seek() {
	p.sent, p.wi, p.woff = p.base, 0, p.aoff
}

// takeUnwritten appends to dst the log's bytes from the writer's position to
// the end — normally one slice, two when the range crosses into a new chunk —
// and moves the position past them. Caller holds p.mu and p.sent < p.last.
func (p *peer) takeUnwritten(dst [][]byte) [][]byte {
	for i := p.wi; i < len(p.log); i++ {
		b := p.log[i].b
		if i == p.wi {
			b = b[p.woff:]
		}
		if len(b) > 0 {
			dst = append(dst, b)
		}
	}
	p.wi = len(p.log) - 1
	p.woff = len(p.log[p.wi].b)
	p.sent = p.last
	return dst
}

// writeBatch hands wbatch to w as one vectored write. WriteTo consumes the
// header it is called on — wbufs, which lives in the peer so that taking its
// address allocates nothing — and wbatch keeps the backing array's full
// capacity for the next round. Only the writer goroutine calls it, without
// p.mu.
func (p *peer) writeBatch(w io.Writer) error {
	p.wbufs = net.Buffers(p.wbatch)
	_, err := p.wbufs.WriteTo(w)
	return err
}

// advanceAck moves base to the cumulative ack and lets go of the chunks it
// covers. A chunk the ack covers to its end is passed in one step and the one
// the ack lands in is walked by its frames' length prefixes, so an ack costs
// at most one chunk's worth of frames however much it covers.
func (p *peer) advanceAck(cum uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cum > p.last {
		cum = p.last // the receiver cannot have what was never sent
	}
	if cum <= p.base {
		return
	}
	for p.base < cum {
		c := p.log[0]
		if end := c.first + uint64(c.n) - 1; end <= cum {
			p.unacked -= len(c.b) - p.aoff
			p.aoff = len(c.b)
			p.base = max(p.base, end)
			if len(p.log) > 1 {
				// Not the tail: drop it. Its end is the next chunk's start.
				p.log[0] = nil
				p.log = p.log[1:]
				p.aoff = 0
				if p.wi--; p.wi < 0 {
					p.wi, p.woff = 0, 0
				}
			}
			continue
		}
		n := 4 + int(binary.BigEndian.Uint32(c.b[p.aoff:]))
		p.aoff += n
		p.unacked -= n
		p.base++
	}
	if p.sent < p.base {
		// The receiver holds frames this connection has not carried (it got
		// them before a reconnect): skip what no longer needs replaying.
		p.seek()
	}
	p.acked.Broadcast()
}
