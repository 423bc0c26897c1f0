package apps

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"mixedmem/internal/core"
)

// SparseSPD is a sparse symmetric positive definite matrix stored densely
// (lower triangle) with an explicit nonzero pattern, plus the symbolic
// factorization the paper's Cholesky application performs first: the fill
// pattern of the factor L and the per-column dependency counts.
type SparseSPD struct {
	N int
	// A holds the lower triangle (A[i][j] for i >= j).
	A [][]float64
	// Fill[i][j] reports whether L[i][j] is structurally nonzero after
	// symbolic factorization (i >= j).
	Fill [][]bool
	// Count[k] is the number of columns j < k that update column k
	// (Fill[k][j] != 0) — the dependency counts of Figure 5.
	Count []int

	// names is the table of the factorization's shared-variable names (see
	// varNames).
	namesOnce sync.Once
	names     spdNames
}

// spdNames holds the names of the shared variables of one matrix's
// factorization, so the inner loops index a table instead of formatting a
// name per access.
type spdNames struct {
	// l is the lower triangle, row by row: entry i*(i+1)/2+j is "L<i>_<j>"
	// where L[i][j] is structurally nonzero and empty elsewhere.
	l []string
	// count[k] is "count<k>" and lock[k] is "l<k>".
	count, lock []string
}

// entry returns L[i][j]'s name for a structural nonzero, i >= j.
func (t *spdNames) entry(i, j int) string { return t.l[i*(i+1)/2+j] }

// varNames returns the matrix's name table, built on first use and shared by
// the processes of a run. It is kept per matrix rather than memoised for the
// package: a run's names die with its matrix. Every name is a slice of one
// string, so the table costs a handful of allocations however many names it
// holds.
func (m *SparseSPD) varNames() *spdNames {
	m.namesOnce.Do(func() {
		t := &m.names
		t.l = make([]string, m.N*(m.N+1)/2)
		perColumn := make([]string, 2*m.N)
		t.count, t.lock = perColumn[:m.N:m.N], perColumn[m.N:]
		nonzeros := 0
		for _, row := range m.Fill {
			for _, filled := range row {
				if filled {
					nonzeros++
				}
			}
		}
		// An upper bound on the bytes of all names, so the builder's buffer
		// is allocated once; a name cut from it stays valid either way.
		digits := len(strconv.Itoa(m.N))
		var b strings.Builder
		b.Grow(nonzeros*(len("L_")+2*digits) + m.N*(len("count")+len("l")+2*digits))
		var num [20]byte
		// name appends prefix+i, then sep+j when sep is not empty, and
		// returns what it appended.
		name := func(prefix string, i int, sep string, j int) string {
			from := b.Len()
			b.WriteString(prefix)
			b.Write(strconv.AppendInt(num[:0], int64(i), 10))
			if sep != "" {
				b.WriteString(sep)
				b.Write(strconv.AppendInt(num[:0], int64(j), 10))
			}
			return b.String()[from:]
		}
		for i := 0; i < m.N; i++ {
			for j := 0; j <= i; j++ {
				if m.Fill[i][j] {
					t.l[i*(i+1)/2+j] = name("L", i, "_", j)
				}
			}
			t.count[i] = name("count", i, "", 0)
			t.lock[i] = name("l", i, "", 0)
		}
	})
	return &m.names
}

// GenSparseSPD generates an n-by-n sparse SPD matrix by drawing a sparse
// lower-triangular G with positive diagonal and forming A = G Gᵀ. density
// is the probability of an off-diagonal structural nonzero in G.
func GenSparseSPD(n int, density float64, seed int64) *SparseSPD {
	r := rand.New(rand.NewSource(seed))
	g := make([][]float64, n)
	for i := 0; i < n; i++ {
		g[i] = make([]float64, i+1)
		for j := 0; j < i; j++ {
			if r.Float64() < density {
				g[i][j] = r.Float64()*2 - 1
			}
		}
		g[i][i] = 1 + r.Float64()
	}
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			var sum float64
			for k := 0; k <= j; k++ {
				sum += g[i][k] * g[j][k]
			}
			a[i][j] = sum
		}
	}
	m := &SparseSPD{N: n, A: a}
	m.symbolicFactor()
	return m
}

// symbolicFactor computes the fill pattern of L by boolean elimination (the
// paper's symbolic factorization step [27]) and the per-column dependency
// counts.
func (m *SparseSPD) symbolicFactor() {
	n := m.N
	fill := make([][]bool, n)
	for i := 0; i < n; i++ {
		fill[i] = make([]bool, i+1)
		for j := 0; j <= i; j++ {
			fill[i][j] = m.A[i][j] != 0
		}
		fill[i][i] = true
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			if !fill[k][j] {
				continue
			}
			// Column j updates column k: L[i][k] -= L[i][j]*L[k][j] for
			// i >= k with L[i][j] nonzero.
			for i := k; i < n; i++ {
				if fill[i][j] {
					fill[i][k] = true
				}
			}
		}
	}
	count := make([]int, n)
	for k := 0; k < n; k++ {
		for j := 0; j < k; j++ {
			if fill[k][j] {
				count[k]++
			}
		}
	}
	m.Fill = fill
	m.Count = count
}

// CholeskySequential factorizes A = L Lᵀ sequentially (right-looking) and
// returns the lower-triangular factor. It is the reference the parallel
// variants are validated against.
func (m *SparseSPD) CholeskySequential() ([][]float64, error) {
	n := m.N
	l := make([][]float64, n)
	for i := 0; i < n; i++ {
		l[i] = make([]float64, i+1)
		copy(l[i], m.A[i])
	}
	for j := 0; j < n; j++ {
		if l[j][j] <= 0 {
			return nil, fmt.Errorf("apps: matrix not positive definite at column %d", j)
		}
		l[j][j] = math.Sqrt(l[j][j])
		for i := j + 1; i < n; i++ {
			l[i][j] /= l[j][j]
		}
		for k := j + 1; k < n; k++ {
			if !m.Fill[k][j] {
				continue
			}
			for i := k; i < n; i++ {
				if m.Fill[i][j] {
					l[i][k] -= l[i][j] * l[k][j]
				}
			}
		}
	}
	return l, nil
}

// FactorError returns the maximum absolute difference between two factors on
// the structural nonzeros.
func (m *SparseSPD) FactorError(a, b [][]float64) float64 {
	var worst float64
	for i := 0; i < m.N; i++ {
		for j := 0; j <= i; j++ {
			if !m.Fill[i][j] {
				continue
			}
			if d := math.Abs(a[i][j] - b[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func colOwner(k, procs int) int { return k % procs }

// CholeskyResult reports a parallel factorization.
type CholeskyResult struct {
	// L is the full factor, read back from shared memory after a final
	// barrier; identical on every process.
	L [][]float64
}

// CholeskyLocks is the Figure 5 algorithm: columns are assigned to processes
// round-robin; the process of column j awaits count[j] = 0, finalizes its
// column locally, and then updates every dependent column k inside a
// critical section guarded by the write lock l[k], decrementing count[k]
// there as well. All shared reads are causal, as Theorem 1 requires; the
// awaits are causal too, so by the time count[j] reaches zero every prior
// critical section's updates are locally applied.
//
// Every process must call CholeskyLocks.
func CholeskyLocks(p core.Process, m *SparseSPD, _ SolveOptions) CholeskyResult {
	initColumns(p, m)
	n := m.N
	nm := m.varNames()
	for j := 0; j < n; j++ {
		if colOwner(j, p.N()) != p.ID() {
			continue
		}
		p.Await(nm.count[j], 0)
		// Finalize column j: sqrt the diagonal, scale the subdiagonal.
		col := readColumnCausal(p, m, j)
		col[j] = math.Sqrt(col[j])
		for i := j + 1; i < n; i++ {
			if m.Fill[i][j] {
				col[i] /= col[j]
			}
		}
		for i := j; i < n; i++ {
			if m.Fill[i][j] {
				core.WriteFloat(p, nm.entry(i, j), col[i])
			}
		}
		// Update dependent columns inside critical sections (Figure 5,
		// lines 4-8).
		for k := j + 1; k < n; k++ {
			if !m.Fill[k][j] {
				continue
			}
			p.WLock(nm.lock[k])
			for i := k; i < n; i++ {
				if !m.Fill[i][j] {
					continue
				}
				cur := core.ReadCausalFloat(p, nm.entry(i, k))
				core.WriteFloat(p, nm.entry(i, k), cur-col[i]*col[k])
			}
			cnt := p.ReadCausal(nm.count[k])
			p.Write(nm.count[k], cnt-1)
			p.WUnlock(nm.lock[k])
		}
	}
	return gatherFactor(p, m)
}

// CholeskyCounters is the Section 5.3 optimization: matrix entries and
// dependency counts become abstract counter objects supporting commutative
// decrements, so the critical sections disappear entirely. Each column
// update is a batch of AddFloat operations followed by an integer decrement
// of count[k]; the causal await of count[k] = 0 fires only after every
// decrement — and hence every preceding column update — has been applied
// locally.
//
// Every process must call CholeskyCounters.
func CholeskyCounters(p core.Process, m *SparseSPD, _ SolveOptions) CholeskyResult {
	initColumns(p, m)
	n := m.N
	nm := m.varNames()
	for j := 0; j < n; j++ {
		if colOwner(j, p.N()) != p.ID() {
			continue
		}
		p.Await(nm.count[j], 0)
		col := readColumnCausal(p, m, j)
		col[j] = math.Sqrt(col[j])
		for i := j + 1; i < n; i++ {
			if m.Fill[i][j] {
				col[i] /= col[j]
			}
		}
		for i := j; i < n; i++ {
			if m.Fill[i][j] {
				core.WriteFloat(p, nm.entry(i, j), col[i])
			}
		}
		for k := j + 1; k < n; k++ {
			if !m.Fill[k][j] {
				continue
			}
			for i := k; i < n; i++ {
				if m.Fill[i][j] {
					p.AddFloat(nm.entry(i, k), -col[i]*col[k])
				}
			}
			p.Add(nm.count[k], -1)
		}
	}
	return gatherFactor(p, m)
}

// initColumns writes the initial matrix entries and dependency counts for
// the columns this process owns, then crosses a barrier so every process
// starts factorization with the inputs causally in place.
func initColumns(p core.Process, m *SparseSPD) {
	nm := m.varNames()
	for j := 0; j < m.N; j++ {
		if colOwner(j, p.N()) != p.ID() {
			continue
		}
		for i := j; i < m.N; i++ {
			if m.Fill[i][j] {
				v := 0.0
				if j < len(m.A[i]) && j <= i {
					v = m.A[i][j]
				}
				core.WriteFloat(p, nm.entry(i, j), v)
			}
		}
		p.Write(nm.count[j], int64(m.Count[j]))
	}
	p.Barrier()
}

// readColumnCausal reads the current (fully updated) entries of column j.
func readColumnCausal(p core.Process, m *SparseSPD, j int) []float64 {
	nm := m.varNames()
	col := make([]float64, m.N)
	for i := j; i < m.N; i++ {
		if m.Fill[i][j] {
			col[i] = core.ReadCausalFloat(p, nm.entry(i, j))
		}
	}
	return col
}

// gatherFactor waits for all processes to finish and reads the whole factor
// back from shared memory.
func gatherFactor(p core.Process, m *SparseSPD) CholeskyResult {
	p.Barrier()
	nm := m.varNames()
	l := make([][]float64, m.N)
	rows := make([]float64, m.N*(m.N+1)/2)
	for i := 0; i < m.N; i++ {
		l[i], rows = rows[:i+1:i+1], rows[i+1:]
		for j := 0; j <= i; j++ {
			if m.Fill[i][j] {
				l[i][j] = core.ReadCausalFloat(p, nm.entry(i, j))
			}
		}
	}
	return CholeskyResult{L: l}
}

// GenGridSPD builds the 5-point Laplacian of a k-by-k grid: the canonical
// sparse SPD test matrix of George & Liu's book, which the paper cites for
// its Cholesky application [12]. The matrix is (k*k) x (k*k) with 4 on the
// diagonal and -1 for each grid neighbor; it is irreducibly sparse and its
// factor fills in along the elimination ordering, giving the column
// dependency DAG a realistic shape.
func GenGridSPD(k int) *SparseSPD {
	n := k * k
	a := make([][]float64, n)
	idx := func(r, c int) int { return r*k + c }
	for i := 0; i < n; i++ {
		a[i] = make([]float64, i+1)
	}
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			i := idx(r, c)
			a[i][i] = 4
			if r > 0 {
				j := idx(r-1, c)
				a[i][j] = -1
			}
			if c > 0 {
				j := idx(r, c-1)
				a[i][j] = -1
			}
		}
	}
	m := &SparseSPD{N: n, A: a}
	m.symbolicFactor()
	return m
}
