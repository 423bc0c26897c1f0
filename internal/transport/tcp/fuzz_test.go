package tcp

import (
	"bufio"
	"bytes"
	"testing"

	"mixedmem/internal/transport"

	// Register the dsm payload codecs so fuzz inputs whose Kind names a real
	// payload exercise the full decode path, exactly as a live peer would.
	_ "mixedmem/internal/dsm"
)

// FuzzFrameDecode feeds arbitrary bytes through the peer stream reader —
// frame splitting plus message decoding. The decoder must reject malformed
// input with an error, never panic: this is the surface a hostile or corrupt
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

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		// One decode state for the stream, as serveConn keeps one for its
		// connection.
		var dec transport.ConnDecoder
		var body []byte
		for {
			var err error
			body, err = readFrame(br, body)
			if err != nil {
				return // stream rejected cleanly
			}
			if len(body) == 0 {
				continue
			}
			switch body[0] {
			case frameMsg:
				_, _, _ = decodeMsgFrame(&dec, body)
			case frameHello, frameAck, frameAckReq:
				// Fixed-size records; the readers bound-check lengths before
				// trusting them, nothing further to decode here.
			}
		}
	})
}
