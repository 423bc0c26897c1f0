package tcp

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"

	"mixedmem/internal/transport"

	// Register the dsm payload codecs so fuzz inputs whose Kind names a real
	// payload exercise the full decode path, exactly as a live peer would.
	_ "mixedmem/internal/dsm"
)

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

// FuzzFrameDecode feeds arbitrary bytes through the receive path — frame
// splitting plus message decoding — as a connection's reads would hand them
// over: in one read, one byte per read, and in reads that end at points the
// input itself chooses (its hash seeds them). The parser must reject malformed
// input with an error, never panic, and find the same frames and the same
// error however the stream is split; this is the surface a hostile or corrupt
// peer controls.
func FuzzFrameDecode(f *testing.F) {
	// A well-formed hello frame.
	var hello []byte
	hello = transport.AppendUint32(hello, 5)
	hello = append(hello, frameHello)
	hello = transport.AppendUint32(hello, helloMagic)
	f.Add(hello)
	// A well-formed msg frame with an unregistered kind and empty payload.
	msg := appendMsgFrame(nil, 1, transport.Message{From: 0, To: 1, Kind: "noop", Size: 4}, nil)
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
	big := appendMsgFrame(nil, 2, transport.Message{From: 0, To: 1, Kind: "noop"}, make([]byte, 2*readBufSize))
	f.Add(append(append(append([]byte{}, msg...), big...), msg...))

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
				_, _, _ = decodeMsgFrame(&dec, body)
			}
			// Hello, ack and ackreq are fixed-size records; the readers
			// bound-check lengths before trusting them.
		}
	})
}
