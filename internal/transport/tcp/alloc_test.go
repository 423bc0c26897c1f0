package tcp

import (
	"sync"
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
		buf = appendMsgFrame(buf[:0], 42, m, payload)
	})
	if allocs > 0 {
		t.Errorf("appendMsgFrame into a buffer with room: %.3f allocs/op, want 0", allocs)
	}
	for _, payload := range [][]byte{nil, payload} {
		if got, want := len(appendMsgFrame(nil, 1, m, payload)), msgFrameSize(m.Kind, payload); got != want {
			t.Errorf("frame of %d payload bytes is %d long, msgFrameSize says %d", len(payload), got, want)
		}
	}
}

// newTestPeer is a peer with no connection and no supervisor: the replay log
// driven by hand.
func newTestPeer() *peer {
	p := &peer{to: 1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// TestPushAckCycleAllocFree pins the cycle the sender runs per message in
// steady state — push a frame, write it, have it acked — at zero allocations:
// the tail chunk is restarted in place, not replaced, whenever the log drains
// with the writer idle.
func TestPushAckCycleAllocFree(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 32}
	payload := make([]byte, 32)
	p := newTestPeer()
	p.push(m, payload) // allocates the one chunk
	p.advanceAck(1)
	tail := p.log[0]
	allocs := testing.AllocsPerRun(2000, func() {
		p.push(m, payload)
		p.wbatch = p.takeUnwritten(p.wbatch[:0])
		p.advanceAck(p.last)
	})
	if allocs > 0 {
		t.Errorf("push/write/ack cycle: %.3f allocs/op, want 0", allocs)
	}
	if len(p.log) != 1 || p.log[0] != tail || tail.n != 1 {
		t.Errorf("log after 2000 drained cycles: %d chunks, tail reused=%v, tail.n=%d; want the one chunk restarted each time",
			len(p.log), p.log[0] == tail, tail.n)
	}
}

// TestStreamingAllocatesOneChunkPerChunkSize is the other half of the pin:
// with acks lagging (nothing ever drains, so nothing restarts) a stream
// allocates one chunk per chunkSize bytes of frames and nothing else.
func TestStreamingAllocatesOneChunkPerChunkSize(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 32}
	payload := make([]byte, 32)
	perChunk := chunkSize / msgFrameSize(m.Kind, payload)
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
	// A chunk is its struct, its bytes, and a slot in the log, whose backing
	// array trim walks off the front of.
	if allocs > 3 {
		t.Errorf("%d frames (one chunk's worth): %.2f allocs, want <= 3", perChunk, allocs)
	}
	if len(p.log) > 2 {
		t.Errorf("log holds %d chunks with one frame unacked, want <= 2", len(p.log))
	}
}

// TestDecodeMsgFrameAllocs pins the receive side of one update frame. The
// frame's kind resolves to the codec registry's own key, so what is left is
// the Update's location string and the *Update that Message.Payload carries
// (three with the kind string, before).
func TestDecodeMsgFrameAllocs(t *testing.T) {
	u := &dsm.Update{From: 0, Seq: 7, Loc: "session/17", Value: 3}
	payload, err := transport.EncodePayload(nil, dsm.KindUpdate, u)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendMsgFrame(nil, 1, transport.Message{From: 0, To: 1, Kind: dsm.KindUpdate, Size: 8}, payload)
	body := frame[4:]
	var kind string
	allocs := testing.AllocsPerRun(500, func() {
		m, _, err := decodeMsgFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		kind = m.Kind
	})
	if kind != dsm.KindUpdate {
		t.Fatalf("decoded kind %q", kind)
	}
	if allocs > 2 {
		t.Errorf("decodeMsgFrame(%s): %.1f allocs, want <= 2", dsm.KindUpdate, allocs)
	}

	// A kind nobody registered still decodes (signals carry no payload); it
	// is the one case that pays for the string.
	frame = appendMsgFrame(nil, 2, transport.Message{From: 0, To: 1, Kind: "some-signal"}, nil)
	m, _, err := decodeMsgFrame(frame[4:])
	if err != nil || m.Kind != "some-signal" || m.Payload != nil {
		t.Fatalf("unregistered kind: %+v, %v", m, err)
	}
}
