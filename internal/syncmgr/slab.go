package syncmgr

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
