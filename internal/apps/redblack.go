package apps

import (
	"math"
	"math/rand"

	"mixedmem/internal/core"
)

// GenTridiagDominant generates a strictly diagonally dominant tridiagonal
// system (a 1-D Poisson-like chain): row i couples only to rows i-1 and
// i+1. Nearest-neighbor coupling is what makes red-black ordering
// phase-separable — every even unknown depends only on odd unknowns and
// vice versa.
func GenTridiagDominant(n int, seed int64) *LinearSystem {
	r := rand.New(rand.NewSource(seed))
	ls := &LinearSystem{
		N: n,
		A: make([][]float64, n),
		B: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ls.A[i] = make([]float64, n)
		var off float64
		if i > 0 {
			v := r.Float64()*2 - 1
			ls.A[i][i-1] = v
			off += math.Abs(v)
		}
		if i < n-1 {
			v := r.Float64()*2 - 1
			ls.A[i][i+1] = v
			off += math.Abs(v)
		}
		ls.A[i][i] = off + 1 + r.Float64()
		ls.B[i] = r.Float64()*10 - 5
	}
	return ls
}

// SolveRedBlack is a second phase-structured relaxation in the Figure 2
// mold: red-black Gauss–Seidel on a tridiagonal system. Unknowns split by
// index parity; each sweep updates all red (even) unknowns from the black
// values, crosses a barrier, then updates all black (odd) unknowns from the
// fresh red values. Within a phase every shared read targets the opposite
// color, so no variable is both read and written in one phase and the
// program is PRAM-consistent (Corollary 2) — but unlike Jacobi it consumes
// half-sweep-fresh values and converges in fewer sweeps.
//
// All processes are workers; process 0 checks convergence in a third phase
// per sweep and publishes the verdict for the next one. Every process must
// call SolveRedBlack.
func SolveRedBlack(p core.Process, ls *LinearSystem, opts SolveOptions) SolveResult {
	opts.fill()
	procs := p.N()
	ownsRow := func(i int) bool { return i%procs == p.ID() }
	xs := ls.xNames()

	// neighborUpdate recomputes unknown i from its (opposite-color)
	// neighbors read out of shared memory.
	neighborUpdate := func(i int) float64 {
		sum := ls.B[i]
		if i > 0 {
			sum -= ls.A[i][i-1] * core.ReadPRAMFloat(p, xs[i-1])
		}
		if i < ls.N-1 {
			sum -= ls.A[i][i+1] * core.ReadPRAMFloat(p, xs[i+1])
		}
		return sum / ls.A[i][i]
	}

	x := make([]float64, ls.N)
	readX := func() {
		for j := 0; j < ls.N; j++ {
			x[j] = core.ReadPRAMFloat(p, xs[j])
		}
	}

	iters := 0
	converged := false
	for iter := 1; iter <= opts.MaxIters; iter++ {
		iters = iter
		// Red phase: even unknowns from black neighbors.
		for i := 0; i < ls.N; i += 2 {
			if ownsRow(i) {
				core.WriteFloat(p, xs[i], neighborUpdate(i))
			}
		}
		p.Barrier()
		// Black phase: odd unknowns from fresh red neighbors.
		for i := 1; i < ls.N; i += 2 {
			if ownsRow(i) {
				core.WriteFloat(p, xs[i], neighborUpdate(i))
			}
		}
		p.Barrier()
		// Convergence phase: process 0 reads the full estimate and
		// publishes the verdict; everyone reads it next phase.
		if p.ID() == 0 {
			readX()
			if ls.residualBelow(x, opts.Tol) {
				p.Write("rbdone", int64(iter))
			}
		}
		p.Barrier()
		if p.ReadPRAM("rbdone") != 0 {
			converged = true
			break
		}
	}
	readX()
	return SolveResult{X: x, Iters: iters, Converged: converged}
}
