// Package apps implements the paper's Section 5 applications on top of the
// mixed-consistency programming model:
//
//   - the iterative linear-equation solver, in its barrier form (Figure 2,
//     PRAM reads) and its handshake form (Figure 3, causal reads);
//   - the electromagnetic-field computation (Figure 4, PRAM reads with
//     barriers);
//   - sparse Cholesky factorization (Figure 5, causal reads with write
//     locks) and its counter-object variant (Section 5.3);
//   - asynchronous Gauss–Seidel relaxation, the Section 7 observation that
//     some relaxation algorithms converge even under plain PRAM.
//
// Every application is written against core.Process, so it runs unchanged on
// either substrate and under any decorator that wraps a process, and every
// application ships with a sequential reference implementation the parallel
// results are validated against.
//
// Workload generators are deterministic in their seeds: the paper's original
// inputs (1994 scientific datasets) are replaced by synthetic systems with
// the same computational structure, as recorded in DESIGN.md.
package apps

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
)

// LinearSystem is a dense system A x = b.
type LinearSystem struct {
	N int
	A [][]float64
	B []float64

	// xs is the table of the estimate variables' names (see xNames).
	xsOnce sync.Once
	xs     []string
}

// xNames returns the names of the shared estimate variables: element i is
// xVar(i). The solvers touch every one of them on every sweep, so the names
// are built once per system — on first use, shared by the processes of a run —
// and the sweeps index the table instead of formatting a name per access.
func (ls *LinearSystem) xNames() []string {
	ls.xsOnce.Do(func() {
		ls.xs = make([]string, ls.N)
		for i := range ls.xs {
			ls.xs[i] = xVar(i)
		}
	})
	return ls.xs
}

// GenDiagDominant generates a strictly diagonally dominant n-by-n system,
// for which both Jacobi and Gauss–Seidel iteration converge. All entries are
// drawn from a seeded source, so the workload is reproducible.
func GenDiagDominant(n int, seed int64) *LinearSystem {
	r := rand.New(rand.NewSource(seed))
	ls := &LinearSystem{
		N: n,
		A: make([][]float64, n),
		B: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ls.A[i] = make([]float64, n)
		var offDiag float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := r.Float64()*2 - 1
			ls.A[i][j] = v
			offDiag += math.Abs(v)
		}
		// Strict dominance with margin keeps the Jacobi spectral radius
		// comfortably below 1.
		ls.A[i][i] = offDiag + 1 + r.Float64()
		ls.B[i] = r.Float64()*10 - 5
	}
	return ls
}

// SolveDirect solves the system by Gaussian elimination with partial
// pivoting — the sequential reference the iterative solvers are validated
// against.
func (ls *LinearSystem) SolveDirect() ([]float64, error) {
	n := ls.N
	// Work on copies.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		copy(a[i], ls.A[i])
	}
	b := make([]float64, n)
	copy(b, ls.B)

	for col := 0; col < n; col++ {
		pivot := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("apps: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] / a[col][col]
			for k := col; k < n; k++ {
				a[row][k] -= f * a[col][k]
			}
			b[row] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// Residual returns the infinity norm of A x - b.
func (ls *LinearSystem) Residual(x []float64) float64 {
	var worst float64
	for i := 0; i < ls.N; i++ {
		var sum float64
		for j := 0; j < ls.N; j++ {
			sum += ls.A[i][j] * x[j]
		}
		if d := math.Abs(sum - ls.B[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// jacobiRow computes the Figure 2 row update:
// x[i] + (b[i] - sum_j A[i][j] x[j]) / A[i][i].
func (ls *LinearSystem) jacobiRow(i int, x []float64) float64 {
	sum := ls.B[i]
	for j := 0; j < ls.N; j++ {
		sum -= ls.A[i][j] * x[j]
	}
	return x[i] + sum/ls.A[i][i]
}

// SolveJacobiSequential runs plain sequential Jacobi iteration until the
// residual drops below tol or maxIters passes, returning the estimate and
// the number of iterations. It is the reference for iteration counts.
func (ls *LinearSystem) SolveJacobiSequential(tol float64, maxIters int) ([]float64, int) {
	x := make([]float64, ls.N)
	next := make([]float64, ls.N)
	for iter := 1; iter <= maxIters; iter++ {
		for i := 0; i < ls.N; i++ {
			next[i] = ls.jacobiRow(i, x)
		}
		copy(x, next)
		if ls.Residual(x) < tol {
			return x, iter
		}
	}
	return x, maxIters
}

// xVar names the shared variable holding estimate i. It defines the naming
// scheme; programs that touch the estimates in a loop index
// LinearSystem.xNames instead of calling it per access.
func xVar(i int) string { return "x" + strconv.Itoa(i) }

// MaxAbsDiff returns the infinity-norm distance between two vectors.
func MaxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// rowRange splits rows 0..n-1 among workers 1..workers and returns the
// half-open range owned by worker w (1-based). The coordinator owns none.
func rowRange(n, workers, w int) (int, int) {
	per := n / workers
	extra := n % workers
	idx := w - 1
	lo := idx*per + min(idx, extra)
	size := per
	if idx < extra {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
