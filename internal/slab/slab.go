// Package slab carves the runtime's small values — pooled updates, timestamps,
// matrix snapshots, batch backings, synchronisation payloads and their
// vectors — out of shared allocations, so that such a value costs a fraction
// of an allocation rather than one of its own.
//
// Nothing carved from a slab is handed out twice: a value is filled by its
// carver, then only read, and the collector frees a slab with the last value
// that points into it. A slab therefore outlives its values by at most what
// the slowest holder has not let go of yet. A slab belongs to one site and is
// used under that site's lock (or by its one goroutine).
package slab

// Size is how many values share one allocation.
const Size = 64

// Of is the unused rest of a slab of T's elements. The zero value is an empty
// slab; every carve refills it once it is too short, and the elements it
// hands out come out zeroed, because they were never handed out before.
type Of[T any] []T

// One returns the next element, refilling s with Size elements once used up.
func (s *Of[T]) One() *T {
	if len(*s) == 0 {
		*s = make(Of[T], Size)
	}
	p := &(*s)[0]
	*s = (*s)[1:]
	return p
}

// Run returns the next n elements, refilling s with Size·n elements once too
// short. The capacity is cut to the length, so no append can run into the
// neighbouring run.
func (s *Of[T]) Run(n int) []T {
	if len(*s) < n {
		*s = make(Of[T], Size*n)
	}
	r := (*s)[:n:n]
	*s = (*s)[n:]
	return r
}

// Room returns an empty slice with room for k elements, rounded up to a
// multiple of round, carved from s, which it refills with size elements once
// too short. A room larger than size is an allocation of its own.
func (s *Of[T]) Room(k, round, size int) []T {
	k = (k + round - 1) / round * round
	if k > size {
		return make([]T, 0, k)
	}
	if len(*s) < k {
		*s = make(Of[T], size)
	}
	r := (*s)[:0:k]
	*s = (*s)[k:]
	return r
}
