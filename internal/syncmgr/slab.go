package syncmgr

// slabSize is how many protocol payloads (and sequence vectors) share one
// allocation — the same figure, for the same reason, as the update slabs of
// internal/dsm: the collector frees a slab with the last message that points
// into it, so a slab outlives its round by at most what the slowest receiver
// has not handled yet.
const slabSize = 64

// slab hands out the elements of slabSize-entry arrays one at a time. A
// payload taken from it is filled before it is sent and never written again:
// the in-process fabric passes the pointer itself to the receiver. Each slab
// belongs to one protocol component and is used under that component's mutex.
type slab[T any] struct{ free []T }

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabSize)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// vecSlab carves n-element runs — sequence vectors, member lists, write-sets —
// from slabSize×n-element arrays. The capacity is cut to the length so no
// append can run into the neighbouring run. A run comes out zeroed, because
// its elements were never handed out before.
type vecSlab[T any] struct{ free []T }

func (s *vecSlab[T]) next(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, slabSize*n)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// waiters is a free list of the one-slot channels a blocked acquire or
// barrier call parks on. A channel is registered under one request, gets at
// most one send (the handler unregisters it before sending), and goes back
// on the list only after its owner has received — so a recycled channel is
// always empty. Used under the owning client's mutex.
type waiters[T any] struct{ free []chan T }

func (w *waiters[T]) get() chan T {
	if n := len(w.free); n > 0 {
		ch := w.free[n-1]
		w.free = w.free[:n-1]
		return ch
	}
	return make(chan T, 1)
}

func (w *waiters[T]) put(ch chan T) { w.free = append(w.free, ch) }
