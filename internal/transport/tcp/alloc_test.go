package tcp

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"mixedmem/internal/dsm"
	"mixedmem/internal/transport"
)

// TestAppendMsgFrameAllocFree pins the frame writer at zero allocations and
// msgFrameSize at the exact frame length: push sizes a chunk's remaining room
// with the one and appends with the other, so a frame that outgrew its
// estimate would reallocate the chunk under the writer's feet.
func TestAppendMsgFrameAllocFree(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 64}
	payload := make([]byte, 64)
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(500, func() {
		buf = appendMsgFrame(buf[:0], 42, m.Kind, payload)
	})
	if allocs > 0 {
		t.Errorf("appendMsgFrame into a buffer with room: %.3f allocs/op, want 0", allocs)
	}
	for _, payload := range [][]byte{nil, payload} {
		for _, seq := range []uint64{1, 127, 128, 1 << 14, 1<<64 - 1} {
			if got, want := len(appendMsgFrame(nil, seq, m.Kind, payload)), msgFrameSize(seq, m.Kind, payload); got != want {
				t.Errorf("frame %d of %d payload bytes is %d long, msgFrameSize says %d", seq, len(payload), got, want)
			}
		}
	}
}

// newTestPeer is a peer with no connection and no supervisor: the replay log
// driven by hand.
func newTestPeer() *peer { return newPeer(1, "") }

// TestPushAckCycleAllocFree pins the cycle the sender runs per message —
// push a frame, have the writer take it (recycling what acks retired since its
// last round), have it acked — at nothing at all once warm: not per message,
// and not per chunk across five chunks of frames, since every chunk the log
// needs is one an ack retired and the writer freed.
func TestPushAckCycleAllocFree(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 32}
	payload := make([]byte, 32)
	perChunk := chunkSize / msgFrameSize(1, m.Kind, payload)
	p := newTestPeer()
	cycle := func() {
		p.push(m, payload)
		p.mu.Lock()
		p.recycle()
		p.wbatch = p.takeUnwritten(p.wbatch[:0])
		p.mu.Unlock()
		p.advanceAck(p.last)
	}
	for i := 0; i < 2*perChunk; i++ {
		cycle()
	}
	cycles := 5 * perChunk
	// One run of all the cycles, so the count is exact, not a per-run average
	// rounded down.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Errorf("%d push/write/ack cycles (%d frames to a chunk): %.0f allocs, want 0", cycles, perChunk, allocs)
	}
	if len(p.log) != 1 || p.unacked != 0 || p.aoff != len(p.log[0].b) {
		t.Errorf("log after %d drained cycles: %d chunks, %d bytes unacked, ack cursor at %d of %d",
			cycles, len(p.log), p.unacked, p.aoff, len(p.log[0].b))
	}
}

// TestStreamingAllocatesOneChunkPerChunkSize is the bound when acks lag
// (nothing ever drains) and the writer never gets between two writes to free
// what they retire: a stream then allocates one chunk per chunkSize bytes of
// frames and nothing else.
func TestStreamingAllocatesOneChunkPerChunkSize(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 32}
	payload := make([]byte, 32)
	// The stream stays below sequence 1<<21, so no frame is longer than this
	// estimate and a chunk takes at least perChunk of them.
	perChunk := chunkSize / msgFrameSize(1<<21-1, m.Kind, payload)
	p := newTestPeer()
	p.push(m, payload)
	allocs := testing.AllocsPerRun(20, func() {
		// One chunk's worth of frames, acked up to (not including) the last.
		for i := 0; i < perChunk; i++ {
			p.push(m, payload)
		}
		p.wbatch = p.takeUnwritten(p.wbatch[:0])
		p.advanceAck(p.last - 1)
	})
	// A chunk is its struct and its bytes; the log reuses its backing array.
	if allocs > 2 {
		t.Errorf("%d frames (one chunk's worth): %.2f allocs, want <= 3", perChunk, allocs)
	}
	if len(p.log) > 2 {
		t.Errorf("log holds %d chunks with one frame unacked, want <= 2", len(p.log))
	}
}

// TestDecodeMsgFrameAllocs pins the receive side of one update frame, one that
// refers to its location by ordinal as every update but a location's first
// does. Decoded through a connection's state it allocates nothing: the kind is
// the registry's key and the *Update comes from the connection's slab (one
// allocation per 64, amortised away here). Decoded statelessly, the update is
// an allocation.
func TestDecodeMsgFrameAllocs(t *testing.T) {
	u := &dsm.Update{From: 0, Seq: 7, Op: dsm.OpSet, Ordinal: 3, Value: 3}
	payload, err := transport.EncodePayload(nil, dsm.KindUpdate, u)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendMsgFrame(nil, 1, dsm.KindUpdate, payload)
	body := frame[4:]
	for _, tc := range []struct {
		name string
		dec  *transport.ConnDecoder
		max  float64
	}{
		{"connection", new(transport.ConnDecoder), 0.1},
		{"stateless", nil, 1},
	} {
		var got transport.Message
		allocs := testing.AllocsPerRun(640, func() {
			m, _, err := decodeMsgFrame(tc.dec, body)
			if err != nil {
				t.Fatal(err)
			}
			got = m
		})
		if got.Kind != dsm.KindUpdate || !reflect.DeepEqual(got.Payload, u) {
			t.Fatalf("%s: decoded %+v", tc.name, got)
		}
		if allocs > tc.max {
			t.Errorf("%s: decodeMsgFrame(%s): %.2f allocs, want <= %.1f", tc.name, dsm.KindUpdate, allocs, tc.max)
		}
	}

	// A kind nobody registered still decodes (signals carry no payload). It
	// pays for the string once per connection, and every time without one.
	frame = appendMsgFrame(nil, 2, "some-signal", nil)
	dec := new(transport.ConnDecoder)
	for _, d := range []*transport.ConnDecoder{nil, dec} {
		m, _, err := decodeMsgFrame(d, frame[4:])
		if err != nil || m.Kind != "some-signal" || m.Payload != nil {
			t.Fatalf("unregistered kind: %+v, %v", m, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = decodeMsgFrame(dec, frame[4:]) }); allocs > 0 {
		t.Errorf("unregistered kind, seen before on the connection: %.1f allocs, want 0", allocs)
	}
}

// TestReadFrameAllocFree pins the receive buffer's parser at zero
// allocations in the steady state: frames are parsed in place, and the frame a
// read cuts in two moves to the front of the buffer for the next read, which
// neither grows it nor copies anything out.
func TestReadFrameAllocFree(t *testing.T) {
	frame := appendMsgFrame(nil, 1, "tcptest", make([]byte, 8))
	stream := bytes.Repeat(frame, 3)
	cut := len(frame) + len(frame)/2 // the second frame straddles the two reads
	b := newFrameBuf()
	allocs := testing.AllocsPerRun(500, func() {
		frames := 0
		for _, read := range [][]byte{stream[:cut], stream[cut:]} {
			b.w += copy(b.space(), read)
			for {
				body, ok, err := b.next()
				if err != nil || ok && len(body) != len(frame)-4 {
					t.Fatalf("frame %d: %d bytes, %v", frames, len(body), err)
				}
				if !ok {
					break
				}
				frames++
			}
		}
		if frames != 3 || b.r != b.w || len(b.buf) != readBufSize {
			t.Fatalf("parsed %d frames, %d bytes left over, buffer of %d", frames, b.w-b.r, len(b.buf))
		}
	})
	if allocs > 0 {
		t.Errorf("parsing frames split across reads: %.1f allocs per round, want 0", allocs)
	}
}

// TestWriteBatchAllocFree: a writer round — take the unwritten range, hand it
// to the connection as net.Buffers — allocates nothing once wbatch has grown
// to the round's width.
func TestWriteBatchAllocFree(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 32}
	payload := make([]byte, 32)
	p := newTestPeer()
	p.push(m, payload) // the chunk
	allocs := testing.AllocsPerRun(500, func() {
		p.push(m, payload)
		p.wbatch = append(p.takeUnwritten(p.wbatch[:0]), ackreqFrame)
		if err := p.writeBatch(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("writer round: %.1f allocs, want 0", allocs)
	}
}
