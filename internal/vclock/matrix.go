package vclock

import (
	"encoding/binary"
	"math/bits"
)

// Matrix is an n-by-n matrix clock, the dependency summary causal delivery
// needs under partial replication. Row p is a vector clock about process p:
// in the DSM's usage, Matrix[p][k] is the highest per-sender sequence number
// of an update from process k *addressed to* process p that the matrix's
// owner (transitively) knows about.
//
// A plain vector clock cannot express causal dependencies when updates are
// scoped to subsets of processes: component k would count k's updates, but a
// receiver that is not in the scope of some of them can never apply those,
// so a "wait until applied >= ts[k]" condition either deadlocks or, if
// holes are skipped, silently drops transitive dependencies that flow
// through third processes. The matrix keeps one row per destination, so the
// wait condition shipped to p mentions only updates p actually receives.
//
// Rows are merged componentwise (entries are monotone: per-sender sequence
// numbers only grow), so matrices learned from different peers compose with
// Merge exactly like vector clocks do.
type Matrix []VC

// NewMatrix returns a zeroed n-by-n matrix clock.
func NewMatrix(n int) Matrix {
	m := make(Matrix, n)
	backing := make(VC, n*n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// Len returns the number of rows (and columns).
func (m Matrix) Len() int { return len(m) }

// Row returns row p: the vector clock about process p. The returned slice
// aliases the matrix.
func (m Matrix) Row(p int) VC { return m[p] }

// Get returns entry [p][k].
func (m Matrix) Get(p, k int) uint64 { return m[p][k] }

// Set assigns entry [p][k].
func (m Matrix) Set(p, k int, v uint64) { m[p][k] = v }

// Clone returns an independent copy of m.
func (m Matrix) Clone() Matrix {
	if m == nil {
		return nil
	}
	out := NewMatrix(len(m))
	for i, row := range m {
		copy(out[i], row)
	}
	return out
}

// Merge raises every entry of m to the componentwise maximum of m and other.
// Matrices of different sizes do not merge (the receiver validates sizes
// before trusting a decoded matrix); Merge ignores rows and columns beyond
// either operand's bounds.
func (m Matrix) Merge(other Matrix) {
	for i := 0; i < len(m) && i < len(other); i++ {
		row, src := m[i], other[i]
		for k := 0; k < len(row) && k < len(src); k++ {
			if src[k] > row[k] {
				row[k] = src[k]
			}
		}
	}
}

// appendActive appends to dst, in ascending order, the indices whose row or
// column holds a nonzero entry: the processes that participate in the
// dependencies m records. In a long-running system most peers are idle with
// respect to any one scope, so the active set is how the wire encoding avoids
// shipping (and the receiver avoids re-learning) quadratically many zeroes.
// The encode path passes a stack buffer, so finding the active set allocates
// nothing for the small sets scoped placements produce.
func (m Matrix) appendActive(dst []int) []int {
	for i := range m {
		if m.active(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// active reports whether row i or column i holds a nonzero entry.
func (m Matrix) active(i int) bool {
	for k := range m {
		if m[i][k] != 0 || m[k][i] != 0 {
			return true
		}
	}
	return false
}

// ActiveEncodedSize returns the number of bytes EncodeActive produces for m.
func (m Matrix) ActiveEncodedSize() int {
	n, ids := 0, 0
	for i := range m {
		if m.active(i) {
			n++
			ids += uvarintLen(uint64(i))
		}
	}
	return uvarintLen(uint64(n)) + ids + 8*n*n
}

// uvarintLen is the length of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// activeOnStack is how many active indices EncodeActive finds without
// allocating.
const activeOnStack = 16

// EncodeActive appends the sparse encoding of m — the active index list
// followed by the row-major submatrix over those indices — to dst:
//
//	uvarint nAct | nAct*uvarint ids | nAct*nAct*u64 sub
//
// Entries outside the active rows and columns are zero by construction, so
// the encoding is lossless; its size depends only on how many processes
// participate, not on the matrix dimension. The entries are fixed-width
// whatever their values, so two matrices over the same active indices encode
// to the same length.
func (m Matrix) EncodeActive(dst []byte) []byte {
	var buf [activeOnStack]int
	ids := m.appendActive(buf[:0])
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	for _, i := range ids {
		for _, k := range ids {
			dst = binary.BigEndian.AppendUint64(dst, m[i][k])
		}
	}
	return dst
}
