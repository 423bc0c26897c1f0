package tcp

import (
	"encoding/binary"
	"io"
	"net"
	"sync"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
)

// chunkSize is the capacity of one chunk of a peer's replay log. A frame
// larger than this gets a one-off chunk of exactly its own size.
const chunkSize = 64 << 10

// maxFreeChunks bounds the full-size chunks a peer keeps for its own log
// (256 KiB); more go to chunkPool.
const maxFreeChunks = 4

// chunkPool holds full-size chunks beyond what the peers keep, for any
// channel — a fresh one too — until the garbage collector empties it.
var chunkPool sync.Pool

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
	// kinds is the channel's accounting, bumped in push's hold and summed by
	// Transport.Stats.
	kinds network.KindCounts
	// log is the replay buffer: every frame the receiver has not acked, in
	// sequence order, packed into chunks (oldest first). The last chunk is
	// the tail push appends to; it stays in the log even when fully acked.
	log []*chunk
	// retired holds the full-size chunks acks have taken off the front of
	// the log, and free the ones push may fill again. Only the writer
	// goroutine moves a chunk on from retired (recycle), between two writes:
	// an ack may cover a chunk the writer is still handing to the kernel, and
	// the bytes must not change under it.
	retired, free []*chunk
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

// push accounts m and appends it as a msg frame carrying the channel's next
// sequence number to the tail of the replay log. A closed channel accounts
// the message but drops it.
func (p *peer) push(m transport.Message, payload []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kinds.Count(m.Kind, m.Size)
	if p.closed {
		return
	}
	size := msgFrameSize(p.last+1, m.Kind, payload)
	var tail *chunk
	if n := len(p.log); n > 0 {
		tail = p.log[n-1]
	}
	if tail == nil || len(tail.b)+size > cap(tail.b) {
		tail = p.newChunk(size)
		p.log = append(p.log, tail)
	}
	p.last++
	tail.b = appendMsgFrame(tail.b, p.last, m.Kind, payload)
	tail.n++
	p.unacked += size
	p.cond.Signal()
}

// newChunk returns an empty chunk for frames from p.last+1 on, with room for
// at least size bytes: a free or pooled one if it fits, a new one otherwise.
// Caller holds p.mu.
func (p *peer) newChunk(size int) *chunk {
	if size <= chunkSize {
		var c *chunk
		if n := len(p.free); n > 0 {
			c = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		} else {
			c, _ = chunkPool.Get().(*chunk)
		}
		if c != nil {
			c.b, c.first, c.n = c.b[:0], p.last+1, 0
			return c
		}
	}
	return &chunk{b: make([]byte, 0, max(chunkSize, size)), first: p.last + 1}
}

// recycle moves the retired chunks to the free list, and those it has no
// room for to the pool. Only the writer goroutine calls it, holding p.mu,
// between two writes — the one point where it holds no slice of any chunk —
// so an ack that races an in-flight write needs no flag.
func (p *peer) recycle() {
	for _, c := range p.retired {
		if len(p.free) < maxFreeChunks {
			p.free = append(p.free, c)
		} else {
			chunkPool.Put(c)
		}
	}
	clear(p.retired)
	p.retired = p.retired[:0]
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

// advanceAck moves base to the cumulative ack and retires the chunks it
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
	done := 0 // chunks the ack covers to their end, the tail excepted
	for p.base < cum {
		c := p.log[done]
		if end := c.first + uint64(c.n) - 1; end <= cum {
			p.unacked -= len(c.b) - p.aoff
			p.aoff = len(c.b)
			p.base = max(p.base, end)
			if done < len(p.log)-1 {
				// Not the tail: retire it. Its end is the next chunk's start.
				// A one-off chunk is left to the garbage collector.
				if cap(c.b) == chunkSize {
					p.retired = append(p.retired, c)
				}
				done++
				p.aoff = 0
			}
			continue
		}
		n := 4 + int(binary.BigEndian.Uint32(c.b[p.aoff:]))
		p.aoff += n
		p.unacked -= n
		p.base++
	}
	if done > 0 {
		n := copy(p.log, p.log[done:])
		clear(p.log[n:])
		p.log = p.log[:n]
		if p.wi -= done; p.wi < 0 {
			p.wi, p.woff = 0, 0
		}
	}
	if p.sent < p.base {
		// The receiver holds frames this connection has not carried (it got
		// them before a reconnect): skip what no longer needs replaying.
		p.seek()
	}
	p.acked.Broadcast()
}
