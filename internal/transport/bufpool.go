package transport

import "sync"

// Encode-buffer pool shared by wire transports and payload codecs
// (DESIGN.md §12). Hot paths that need a scratch []byte — payload encoding,
// control messages, a connection's read buffer — draw from here instead of
// allocating per message.
//
// Lifecycle contract: a buffer obtained with GetBuf is exclusively owned
// until PutBuf; it must not be retained (directly or via sub-slices that
// escape) after PutBuf returns it. Callers that hand encoded bytes onward
// must either copy them out first (the tcp sender copies the payload into
// its replay log) or transfer ownership and never return the buffer.
//
// The pool is a mutex-guarded freelist rather than a sync.Pool: Put on a
// sync.Pool boxes the slice header, which itself allocates, and these
// buffers back paths with allocs-per-op tests pinning them at zero.
var bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// bufPoolMax bounds the freelist length; excess buffers are dropped to the
// garbage collector. 64 in-flight scratch buffers is far beyond what
// concurrent senders, connection readers and codecs hold at once.
const bufPoolMax = 64

// GetBuf returns an empty byte slice with at least 512 bytes of capacity.
func GetBuf() []byte {
	p := &bufPool
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b[:0]
	}
	p.mu.Unlock()
	return make([]byte, 0, 512)
}

// PutBuf returns a buffer to the pool. The caller must not use b (or any
// alias of its backing array) afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	p := &bufPool
	p.mu.Lock()
	if len(p.free) < bufPoolMax {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// Payload recyclers let protocol packages reclaim payload-owned buffers once
// a wire transport has encoded the payload into a frame. The in-process
// fabric delivers payloads by reference and never calls these — there the
// receiver recycles. See stampedBatch (one payload per message) and
// stampedUpdate (one payload shared by several messages) in internal/dsm for
// the two lifecycles.
var (
	recycleMu sync.RWMutex
	recyclers = make(map[string]func(any))
)

// RegisterRecycler installs the post-encode reclaim hook for a message kind.
// Protocol packages call it from init; later registrations replace earlier
// ones.
func RegisterRecycler(kind string, fn func(any)) {
	recycleMu.Lock()
	defer recycleMu.Unlock()
	recyclers[kind] = fn
}

// RecyclePayload invokes the kind's reclaim hook, if any. Wire transports
// call it exactly once per sent message — a Broadcast to n-1 peers is n-1
// messages, however many times the payload was encoded — after the payload's
// bytes are fully copied into the outgoing frame; the sender's reference to the
// payload for that message ends there. A payload may be shared by several
// messages (dsm counts one reference per message), so it must not be used
// once the last of its messages is recycled.
func RecyclePayload(kind string, payload any) {
	if payload == nil {
		return
	}
	recycleMu.RLock()
	fn := recyclers[kind]
	recycleMu.RUnlock()
	if fn != nil {
		fn(payload)
	}
}
