package history

import "math/bits"

// Relation is a binary relation over operation IDs 0..n-1, stored as a dense
// bit matrix. Row i holds the set {j : i R j}. The representation keeps the
// transitive-closure and restriction computations of Section 3 cheap for the
// history sizes the checker handles (thousands of operations).
type Relation struct {
	n     int
	words int
	rows  []uint64
}

// NewRelation returns an empty relation over n elements.
func NewRelation(n int) *Relation {
	words := (n + 63) / 64
	return &Relation{n: n, words: words, rows: make([]uint64, n*words)}
}

// Add inserts the pair (i, j).
func (r *Relation) Add(i, j int) {
	r.rows[i*r.words+j/64] |= 1 << (uint(j) % 64)
}

// Has reports whether (i, j) is in the relation.
func (r *Relation) Has(i, j int) bool {
	return r.rows[i*r.words+j/64]&(1<<(uint(j)%64)) != 0
}

// Union adds every pair of other into r. The relations must have equal size.
func (r *Relation) Union(other *Relation) {
	for i := range r.rows {
		r.rows[i] |= other.rows[i]
	}
}

// Pairs returns the number of pairs in the relation.
func (r *Relation) Pairs() int {
	total := 0
	for _, w := range r.rows {
		total += bits.OnesCount64(w)
	}
	return total
}

// TransitiveClose replaces r with its transitive closure using a bitset
// Floyd–Warshall: for each intermediate k, every row that reaches k absorbs
// row k. O(n^2 * n/64).
func (r *Relation) TransitiveClose() {
	for k := 0; k < r.n; k++ {
		krow := r.rows[k*r.words : (k+1)*r.words]
		kword, kbit := k/64, uint64(1)<<(uint(k)%64)
		for i := 0; i < r.n; i++ {
			irow := r.rows[i*r.words : (i+1)*r.words]
			if irow[kword]&kbit == 0 {
				continue
			}
			for w := range irow {
				irow[w] |= krow[w]
			}
		}
	}
}

// TransitiveReduce returns the transitive reduction of r, assuming r is a
// DAG that is already transitively closed: the pair (i, j) survives iff there
// is no k with i R k and k R j. The paper uses transitive reductions of the
// synchronization orders to build the PRAM order (Definition 3, step 1).
func (r *Relation) TransitiveReduce() *Relation {
	out := NewRelation(r.n)
	for i := 0; i < r.n; i++ {
		irow := r.rows[i*r.words : (i+1)*r.words]
		for j := 0; j < r.n; j++ {
			if !r.Has(i, j) || i == j {
				continue
			}
			// (i, j) is redundant if some k != i, j has i R k R j.
			redundant := false
			for w := 0; w < r.words && !redundant; w++ {
				cand := irow[w]
				if cand == 0 {
					continue
				}
				for cand != 0 {
					b := bits.TrailingZeros64(cand)
					cand &^= 1 << uint(b)
					k := w*64 + b
					if k != i && k != j && r.Has(k, j) {
						redundant = true
						break
					}
				}
			}
			if !redundant {
				out.Add(i, j)
			}
		}
	}
	return out
}

// Restrict returns r limited to pairs whose endpoints both satisfy keep.
func (r *Relation) Restrict(keep func(int) bool) *Relation {
	out := NewRelation(r.n)
	for i := 0; i < r.n; i++ {
		if !keep(i) {
			continue
		}
		irow := r.rows[i*r.words : (i+1)*r.words]
		orow := out.rows[i*r.words : (i+1)*r.words]
		for w, word := range irow {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				j := w*64 + b
				if keep(j) {
					orow[w] |= 1 << uint(b)
				}
			}
		}
	}
	return out
}

// RestrictEndpoint returns the subrelation of pairs with at least one
// endpoint satisfying touch — the |->i construction of Definition 3, step 2:
// "those edges that either emanate from or are incident upon operations of
// process p_i".
func (r *Relation) RestrictEndpoint(touch func(int) bool) *Relation {
	out := NewRelation(r.n)
	for i := 0; i < r.n; i++ {
		irow := r.rows[i*r.words : (i+1)*r.words]
		for w, word := range irow {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				j := w*64 + b
				if touch(i) || touch(j) {
					out.Add(i, j)
				}
			}
		}
	}
	return out
}

// HasCycle reports whether the relation, viewed as a directed graph, has a
// cycle. Histories must have acyclic causality relations (Section 3).
func (r *Relation) HasCycle() bool {
	const (
		white = int8(0)
		gray  = int8(1)
		black = int8(2)
	)
	color := make([]int8, r.n)
	type frame struct{ node, next int }
	var stack []frame
	for start := 0; start < r.n; start++ {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{start, 0})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			pushed := false
			j := f.next
			for ; j < r.n; j++ {
				if !r.Has(f.node, j) {
					continue
				}
				if color[j] == gray {
					return true
				}
				if color[j] == white {
					f.next = j + 1
					color[j] = gray
					stack = append(stack, frame{j, 0})
					pushed = true
					break
				}
				// black successor: keep scanning.
			}
			if pushed {
				continue
			}
			f.next = j
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return false
}
