package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"
)

// readBufSize is the size of the buffer a connection's reads fill. It bounds
// how many frames are handled between two looks at whether an ack is due.
const readBufSize = 4 << 10

// frameBuf is one connection's receive buffer: buf[r:w] holds bytes read and
// not yet parsed. Frames are parsed in place, so a frame's body aliases the
// buffer until the next call to space. A frame larger than the connection's
// own readBufSize buffer (small) is read into a one-off buffer of exactly its
// size, and the connection goes back to small once that frame is parsed.
type frameBuf struct {
	buf, small []byte
	r, w       int
}

func newFrameBuf() frameBuf {
	b := make([]byte, readBufSize)
	return frameBuf{buf: b, small: b}
}

// next parses the next frame out of the buffer and returns its body; ok is
// false when the buffer holds no complete frame. A length prefix over maxFrame
// is an error: the stream is corrupt.
func (b *frameBuf) next() (body []byte, ok bool, err error) {
	if b.w-b.r < 4 {
		return nil, false, nil
	}
	n := binary.BigEndian.Uint32(b.buf[b.r:])
	if n > maxFrame {
		return nil, false, fmt.Errorf("tcp: frame of %d bytes exceeds limit", n)
	}
	end := b.r + 4 + int(n)
	if end > b.w {
		return nil, false, nil
	}
	body = b.buf[b.r+4 : end]
	b.r = end
	return body, true, nil
}

// space readies the buffer for a read, once next has returned every complete
// frame, and returns the free space the read goes into. The unparsed bytes —
// part of one frame at most — move to the front: of small, or of a one-off
// buffer when the frame they start is larger than small. So the space is never
// empty, and every body next returned before is invalid from here on.
func (b *frameBuf) space() []byte {
	rest := b.buf[b.r:b.w]
	dst := b.small
	if len(rest) >= 4 {
		if n := 4 + int(binary.BigEndian.Uint32(rest)); n > len(dst) {
			if dst = b.buf; n > len(dst) {
				dst = make([]byte, n)
			}
		}
	}
	if b.r > 0 || len(dst) != len(b.buf) { // a one-off is longer than small
		b.w = copy(dst, rest)
		b.buf, b.r = dst, 0
	}
	return b.buf[b.w:]
}

// readFrames reads conn until it fails and hands each frame body to frame, in
// order; a body is valid only until frame returns. See frameReader.run.
func readFrames(conn net.Conn, b *frameBuf, frame func(body []byte) bool, idle func() bool) error {
	r, err := newFrameReader(conn, b, frame, idle)
	if err != nil {
		return err
	}
	return r.run()
}

// frameReader is what readFrames keeps while it reads one connection. A reader
// that goes back to reading after its read deadline passed keeps it too
// (serveConn's probe), so the wake-up allocates nothing of its own.
type frameReader struct {
	rc    syscall.RawConn
	b     *frameBuf
	frame func(body []byte) bool
	idle  func() bool
	// read is r.readFD, made once; stopped and err are what it reports.
	read    func(fd uintptr) bool
	stopped bool
	err     error
}

func newFrameReader(conn net.Conn, b *frameBuf, frame func(body []byte) bool, idle func() bool) (*frameReader, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("tcp: %T does not expose its file descriptor", conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &frameReader{rc: rc, b: b, frame: frame, idle: idle}
	r.read = r.readFD
	return r, nil
}

// run reads until the connection fails, handing each frame body to frame. It
// makes one read system call per readiness edge: the frames one read returns
// are all handled, then idle runs (when non-nil; serveConn writes a due ack
// there), and then a read that filled the free space is followed by another at
// once, while one that did not has drained the socket, so run waits for the
// poller without the read that would find the socket empty. Bytes arriving
// meanwhile are a new edge, which the wait sees. The end of the stream may not
// be: TCP reports a FIN or a reset only to the read after the bytes that
// preceded it, and the poller may fold its wake-up into theirs, so a reader
// that must notice a peer that has gone bounds its wait with a read deadline
// (serveConn's probe).
//
// It returns nil once frame or idle returns false, and otherwise the error
// that ended it: a failed read, end of stream, a corrupt length prefix, or the
// read deadline passing (os.ErrDeadlineExceeded), checked before every read
// and every wait. The buffer keeps a frame a deadline cut short for the next
// call.
func (r *frameReader) run() error {
	r.stopped, r.err = false, nil
	for !r.stopped && r.err == nil {
		if err := r.rc.Read(r.read); err != nil {
			return err
		}
	}
	return r.err
}

// readFD runs inside rc.Read: it returns false to wait for the next readiness
// edge, true to return from rc.Read.
func (r *frameReader) readFD(fd uintptr) bool {
	b := r.b
	space := b.space()
	n, err := syscall.Read(int(fd), space)
	for err == syscall.EINTR {
		n, err = syscall.Read(int(fd), space)
	}
	switch {
	case err == syscall.EAGAIN:
		return false // an edge whose bytes an earlier read already took
	case err != nil:
		r.err = os.NewSyscallError("read", err)
		return true
	case n == 0:
		r.err = io.EOF
		if b.w > b.r {
			r.err = io.ErrUnexpectedEOF
		}
		return true
	}
	b.w += n
	for {
		body, ok, err := b.next()
		if err != nil {
			r.err = err
			return true
		}
		if !ok {
			break
		}
		if !r.frame(body) {
			r.stopped = true
			return true
		}
	}
	if r.idle != nil && !r.idle() {
		r.stopped = true
		return true
	}
	// Returning true reads again through rc.Read, which checks the deadline
	// first.
	return n == len(space)
}

// writeDeadline is a connection's write deadline, re-armed only when less than
// half of timeout is left: a write then costs a clock read instead of a clock
// read and a runtime timer reset, and a write that stalls fails after between
// timeout/2 and timeout.
type writeDeadline struct {
	timeout time.Duration
	at      time.Time
}

// arm re-arms the deadline on conn if it is due.
func (d *writeDeadline) arm(conn net.Conn) {
	if now := time.Now(); d.at.Sub(now) < d.timeout/2 {
		d.at = now.Add(d.timeout)
		conn.SetWriteDeadline(d.at)
	}
}
