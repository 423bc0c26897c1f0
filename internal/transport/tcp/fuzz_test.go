package tcp

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"mixedmem/internal/loctab"
	"mixedmem/internal/transport"

	// The dsm payload codecs are registered, so fuzz inputs whose Kind names
	// a real payload exercise the full decode path, exactly as a live peer's
	// would.
	"mixedmem/internal/dsm"
)

// decodeMsgFrame is the receive path's parse of a msg frame body on a
// connection from node 0 to node 1: its sequence number, then the message.
func decodeMsgFrame(dec *transport.ConnDecoder, body []byte) (transport.Message, uint64, error) {
	seq, rest, ok := msgSeq(body)
	if !ok {
		return transport.Message{}, 0, fmt.Errorf("msg frame % x carries no sequence number", body)
	}
	m, err := decodeMsg(dec, 0, 1, rest)
	return m, seq, err
}

// parseReads runs stream through a connection's receive buffer as a sequence
// of reads, each returning read(left) bytes (at least one, at most what is
// left and what the buffer has room for), and returns a copy of every frame
// body found and the parser's error, if any.
func parseReads(stream []byte, read func(left int) int) (bodies [][]byte, err error) {
	b := newFrameBuf()
	for len(stream) > 0 {
		space := b.space()
		n := copy(space[:min(len(space), max(1, read(len(stream))))], stream)
		b.w += n
		stream = stream[n:]
		for {
			body, ok, err := b.next()
			if err != nil {
				return bodies, err
			}
			if !ok {
				break
			}
			bodies = append(bodies, bytes.Clone(body))
		}
	}
	return bodies, nil
}

// v1Frames are streams in the first frame format — a hello with the magic
// "MXDM", msg frames with a u64 seq, from, to, a u32-prefixed kind, size and
// payload length — the two the fuzzer's seeds were built from and every entry
// its checked-in corpus held. None may deliver a message today: a hello is
// refused, and a msg frame either fails to decode or names sequence number 0,
// which no channel ever delivers.
var v1Frames = []string{
	"\x00\x00\x00\x09\x01MXDM\x00\x00\x00\x05", // hello from node 5
	"\x00\x00\x00\x21\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01" +
		"\x00\x00\x00\x04noop\x00\x00\x00\x04\x00\x00\x00\x00", // msg 1, 0 -> 1, kind "noop", no payload
	"\x00\x00\x00 \x020000000000000000\x00\x00\x010000000000000",        // seed1
	"\x00\x00\x00\x040000\x00\x00\x00\x040000",                          // seed2
	"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01000",           // seed3
	"\x00\x00\x00 \x02000000000000000000000000000000000000",             // seed4
	"\x00\x00\x00\x0200\x00\x00\x00\x00\x000000",                        // seed5
	"\x00\x00\x00!\x020000000000000000\x00\x00\x00\x040000000000000000", // seed6
}

// delivers reports whether a stream's frames, served in order by one
// connection, would hand a message to the inbox: a hello naming a sender must
// come first, and a msg frame after it must decode with a sequence number.
func delivers(bodies [][]byte) bool {
	if len(bodies) == 0 {
		return false
	}
	if _, ok := parseHello(bodies[0]); !ok {
		return false
	}
	for _, body := range bodies[1:] {
		if len(body) > 0 && body[0] == frameMsg {
			if _, seq, err := decodeMsgFrame(nil, body); err == nil && seq > 0 {
				return true
			}
		}
	}
	return false
}

// TestV1FramesRejected: no stream of the first frame format delivers a
// message, whether it opens with its own hello or a current one.
func TestV1FramesRejected(t *testing.T) {
	hello := appendHelloFrame(nil, 0)
	for _, v1 := range v1Frames {
		for _, stream := range []string{v1, string(hello) + v1} {
			bodies, _ := parseReads([]byte(stream), func(left int) int { return left })
			if delivers(bodies) {
				t.Errorf("% x delivers a message", stream)
			}
		}
	}
	// The current format does deliver, so the check has teeth.
	if bodies, _ := parseReads(appendMsgFrame(hello, 1, "noop", nil), func(left int) int { return left }); !delivers(bodies) {
		t.Fatal("a current hello and msg frame deliver nothing")
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the receive path — frame
// splitting plus message decoding — as a connection's reads would hand them
// over: in one read, one byte per read, and in reads that end at points the
// input itself chooses (its hash seeds them). The parser must reject malformed
// input with an error, never panic, and find the same frames and the same
// error however the stream is split; and a msg frame that decodes must be
// exactly the frame its sequence number, kind and payload encode to. This is
// the surface a hostile or corrupt peer controls.
func FuzzFrameDecode(f *testing.F) {
	// A well-formed hello frame.
	hello := appendHelloFrame(nil, 5)
	f.Add(hello)
	// A well-formed msg frame with an unregistered kind and empty payload.
	msg := appendMsgFrame(nil, 1, "noop", nil)
	f.Add(msg)
	// An ack frame.
	var ack []byte
	ack = transport.AppendUint32(ack, 9)
	ack = append(ack, frameAck)
	ack = transport.AppendUint64(ack, 17)
	f.Add(ack)
	// Two frames back to back, the second truncated.
	f.Add(append(append([]byte{}, msg...), 0, 0, 0, 99, frameMsg, 1, 2))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// An ackreq between two msg frames, and a type-4 frame whose body is too
	// long to be one: the receiver skips it and serves what follows.
	f.Add(append(append(append([]byte{}, msg...), ackreqFrame...), msg...))
	f.Add(append([]byte{0, 0, 0, 3, frameAckReq, 1, 2}, msg...))
	// A frame larger than the read buffer, between two that fit.
	big := appendMsgFrame(nil, 2, "noop", make([]byte, 2*readBufSize))
	f.Add(append(append(append([]byte{}, msg...), big...), msg...))
	// Non-minimal varints: the sequence number, then the kind's length.
	f.Add([]byte{0, 0, 0, 8, frameMsg, 0x81, 0x00, 4, 'n', 'o', 'o', 'p'})
	f.Add([]byte{0, 0, 0, 8, frameMsg, 1, 0x84, 0x00, 'n', 'o', 'o', 'p'})
	for _, v1 := range v1Frames {
		f.Add([]byte(v1))
	}
	f.Add(definitionStream(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := parseReads(data, func(left int) int { return left })
		h := fnv.New64a()
		h.Write(data)
		x := h.Sum64()
		for _, split := range []struct {
			name string
			read func(left int) int
		}{
			{"byte by byte", func(int) int { return 1 }},
			{"at the input's points", func(left int) int {
				x = x*6364136223846793005 + 1442695040888963407
				return 1 + int((x>>33)%uint64(left))
			}},
		} {
			got, err := parseReads(data, split.read)
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: %d frames, error %v; in one read: %d frames, error %v",
					split.name, len(got), err, len(want), wantErr)
			}
		}
		// One decode state for the stream, as serveConn keeps one for its
		// connection.
		var dec transport.ConnDecoder
		for _, body := range want {
			if len(body) > 0 && body[0] == frameMsg {
				m, seq, err := decodeMsgFrame(&dec, body)
				if err != nil {
					continue
				}
				frame := appendMsgFrame(nil, seq, m.Kind, body[len(body)-m.Size:])
				if !bytes.Equal(frame[4:], body) {
					t.Fatalf("msg frame % x decodes to seq %d, kind %q and %d payload bytes, which encode as % x",
						body, seq, m.Kind, m.Size, frame[4:])
				}
			}
			// Hello, ack and ackreq are fixed-size records; the readers
			// bound-check lengths before trusting them.
			_, _ = parseHello(body)
		}
	})
}

// definitionStream is a definition-heavy stream: a hello, then updates and a
// batch that define locations whose names fill more than a chunk of the
// connection's name arena, the first one longer than a chunk (and than the
// read buffer).
func definitionStream(tb testing.TB) []byte {
	stream := appendHelloFrame(nil, 1)
	frame := func(seq uint64, kind string, payload any) {
		enc, err := transport.EncodePayload(nil, kind, payload)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		stream = appendMsgFrame(stream, seq, kind, enc)
	}
	def := func(seq uint64, n int) dsm.Update {
		return dsm.Update{From: 1, Seq: seq, Op: dsm.OpSet, Loc: fmt.Sprintf("%d/%s", seq, bytes.Repeat([]byte("d"), n)),
			Ordinal: uint32(seq), Defines: true, Value: int64(seq)}
	}
	for seq, n := range []int{loctab.ArenaChunk + 1, loctab.ArenaChunk / 2, loctab.ArenaChunk / 2} {
		u := def(uint64(seq+1), n)
		frame(uint64(seq+1), dsm.KindUpdate, &u)
	}
	b := &dsm.UpdateBatch{From: 1, FirstSeq: 4}
	for seq := uint64(4); seq < 12; seq++ {
		b.Updates = append(b.Updates, def(seq, 200))
	}
	frame(4, dsm.KindUpdateBatch, b)
	return stream
}
