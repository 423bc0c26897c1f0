// Package vclock implements fixed-width vector clocks.
//
// A vector clock timestamps events in a distributed computation so that the
// happens-before relation between two events can be recovered by comparing
// their timestamps componentwise. The mixed-consistency runtime
// (internal/dsm) attaches a vector clock to every update message and applies
// updates to the causal view only when all causally preceding updates have
// been applied, exactly as sketched in Section 6 of the paper.
//
// Clocks in this package have a fixed number of components, one per process,
// chosen at creation time. All operations treat component i as the count of
// relevant events issued by process i.
package vclock

import (
	"encoding/binary"
	"strconv"
	"strings"
)

// Ordering is the result of comparing two vector clocks.
type Ordering int

// The four possible relations between two vector clocks.
const (
	// Equal means the clocks are identical in every component.
	Equal Ordering = iota + 1
	// Before means the receiver strictly happens-before the argument.
	Before
	// After means the argument strictly happens-before the receiver.
	After
	// Concurrent means neither clock dominates the other.
	Concurrent
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return "ordering(" + strconv.Itoa(int(o)) + ")"
	}
}

// VC is a vector clock with one component per process. The zero-length VC is
// valid and compares Equal to any other zero-length VC.
type VC []uint64

// New returns a zeroed vector clock with n components.
func New(n int) VC {
	return make(VC, n)
}

// Len returns the number of components.
func (v VC) Len() int { return len(v) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	if v == nil {
		return nil
	}
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Get returns component p.
func (v VC) Get(p int) uint64 { return v[p] }

// Set assigns component p.
func (v VC) Set(p int, val uint64) { v[p] = val }

// Merge sets every component of v to the maximum of v and other. The clocks
// must have the same length.
func (v VC) Merge(other VC) {
	for i, c := range other {
		if c > v[i] {
			v[i] = c
		}
	}
}

// Compare reports the relation between v and other. Clocks of different
// lengths are never related; Compare reports Concurrent for them.
func (v VC) Compare(other VC) Ordering {
	if len(v) != len(other) {
		return Concurrent
	}
	less, greater := false, false
	for i := range v {
		switch {
		case v[i] < other[i]:
			less = true
		case v[i] > other[i]:
			greater = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// HappensBefore reports whether v strictly happens-before other.
func (v VC) HappensBefore(other VC) bool {
	return v.Compare(other) == Before
}

// Dominates reports whether v >= other in every component.
func (v VC) Dominates(other VC) bool {
	o := v.Compare(other)
	return o == After || o == Equal
}

// DeliverableAfter reports whether an update stamped ts, sent by process
// from, is causally deliverable at a replica whose applied-state clock is v.
// The standard causal-broadcast condition: ts[from] == v[from]+1 and
// ts[k] <= v[k] for all k != from.
func DeliverableAfter(v, ts VC, from int) bool {
	if len(v) != len(ts) {
		return false
	}
	for k := range ts {
		if k == from {
			if ts[k] != v[k]+1 {
				return false
			}
			continue
		}
		if ts[k] > v[k] {
			return false
		}
	}
	return true
}

// String renders the clock as "[c0 c1 ...]".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(c, 10))
	}
	b.WriteByte(']')
	return b.String()
}

// EncodedSize returns the number of bytes Encode produces for v.
func (v VC) EncodedSize() int { return 8 * len(v) }

// Encode appends a fixed-width big-endian encoding of v to dst and returns
// the extended slice.
func (v VC) Encode(dst []byte) []byte {
	for _, c := range v {
		dst = binary.BigEndian.AppendUint64(dst, c)
	}
	return dst
}
