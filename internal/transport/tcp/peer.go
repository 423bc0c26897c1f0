package tcp

import (
	"encoding/binary"
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

	mu   sync.Mutex
	cond *sync.Cond
	// log is the replay buffer: every frame the receiver has not acked, in
	// sequence order, packed into chunks (oldest first). The last chunk is
	// the tail push appends to; it stays in the log even when fully acked so
	// push can restart it in place instead of allocating a fresh one. Chunks
	// are not pooled: advanceAck just drops its reference to a fully acked
	// chunk and the garbage collector reclaims it once the writer's slices of
	// it are gone too, so an ack racing an in-flight write needs no protocol.
	log []*chunk
	// base is the receiver's cumulative ack, sent the highest sequence handed
	// to the kernel on the current connection, last the highest sequence
	// assigned: base <= sent <= last.
	base, sent, last uint64
	// wi and woff locate frame sent+1, the writer's position: byte woff of
	// log[wi]. The end of one chunk and the start of the next are the same
	// position.
	wi, woff int
	// writing is true while the writer goroutine is inside a socket write of
	// bytes it took from the log. push may restart the tail chunk in place —
	// overwrite its bytes — only when this is false.
	writing bool
	conn    net.Conn
	closed  bool
	// wbatch is the writer goroutine's reusable slice-of-slices scratch.
	// runPeer guarantees a single writer, so only that goroutine touches it.
	wbatch [][]byte
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
	switch {
	case tail != nil && p.base == p.last && !p.writing && size <= cap(tail.b):
		// Everything is acked and nobody is reading the tail's bytes:
		// restart it in place. (Allocating a fresh chunk whenever the log
		// drains instead costs a zeroed 64 KiB per quiet round trip.)
		tail.b, tail.first, tail.n = tail.b[:0], p.last+1, 0
		p.wi, p.woff = len(p.log)-1, 0
	case tail == nil || len(tail.b)+size > cap(tail.b):
		c := chunkSize
		if size > c {
			c = size
		}
		tail = &chunk{b: make([]byte, 0, c), first: p.last + 1}
		p.log = append(p.log, tail)
	}
	p.last++
	tail.b = appendMsgFrame(tail.b, p.last, m, payload)
	tail.n++
	p.cond.Signal()
}

// trim drops the log's references to fully acked chunks other than the
// tail. Caller holds p.mu.
func (p *peer) trim() {
	k := 0
	for k < len(p.log)-1 && p.log[k].first+uint64(p.log[k].n) <= p.base+1 {
		p.log[k] = nil
		k++
	}
	p.log = p.log[k:]
	if p.wi -= k; p.wi < 0 {
		// The writer stood at the end of a dropped chunk: the start of the
		// next one.
		p.wi, p.woff = 0, 0
	}
}

// seek moves the writer's position back (after a reconnect) or forward (an
// ack for frames this connection has not carried) to the first unacked
// frame, found by walking the length prefixes of the first chunk. Caller
// holds p.mu. Every ack trims the log, so the first chunk either holds frame
// base+1 or is a fully acked tail — possibly one push could not restart and
// put a successor behind — and then the walk stops at its end, which is the
// start of the next chunk.
func (p *peer) seek() {
	p.sent, p.wi, p.woff = p.base, 0, 0
	if len(p.log) == 0 {
		return
	}
	c := p.log[0]
	for seq := c.first; seq <= p.base && p.woff < len(c.b); seq++ {
		p.woff += 4 + int(binary.BigEndian.Uint32(c.b[p.woff:]))
	}
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

// advanceAck moves base to the cumulative ack and lets go of the chunks it
// covers.
func (p *peer) advanceAck(cum uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cum > p.last {
		cum = p.last // the receiver cannot have what was never sent
	}
	if cum <= p.base {
		return
	}
	p.base = cum
	p.trim()
	if p.sent < p.base {
		// The receiver holds frames this connection has not carried (it got
		// them before a reconnect): skip what no longer needs replaying.
		p.seek()
	}
	p.cond.Broadcast() // wake Flush waiters
}
