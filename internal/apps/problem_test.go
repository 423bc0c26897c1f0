package apps

import (
	"math"
	"math/rand"
	"testing"

	"mixedmem/internal/core"
)

// TestDotMatchesNaiveLoop checks the four-way kernel against one serial sum
// at every length from 0 to 17, which covers every tail length after the
// unrolled loop several times over. The two sum in different orders, so they
// agree to rounding: within 1e-12 of the sum of the terms' magnitudes.
func TestDotMatchesNaiveLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 17; n++ {
		for trial := 0; trial < 20; trial++ {
			a := make([]float64, n)
			x := make([]float64, n+trial%3) // x may be longer than a
			for j := range x {
				x[j] = r.Float64()*20 - 10
			}
			var want, scale float64
			for j := range a {
				a[j] = r.Float64()*2 - 1
				want += a[j] * x[j]
				scale += math.Abs(a[j] * x[j])
			}
			if got := dot(a, x); math.Abs(got-want) > 1e-12*scale {
				t.Fatalf("n=%d: dot = %v, naive loop %v", n, got, want)
			}
		}
	}
}

// TestResidualBelowMatchesResidual is the predicate's differential test:
// residualBelow(x, tol) must be exactly Residual(x) < tol, on estimates near
// and far from the solution, with NaN and infinite entries, and at every
// tolerance where the two could part: non-positive, NaN, infinite, tiny, and
// the residual itself and its floating-point neighbours.
func TestResidualBelowMatchesResidual(t *testing.T) {
	ls := GenDiagDominant(9, 5)
	solution, err := ls.SolveDirect()
	if err != nil {
		t.Fatalf("SolveDirect: %v", err)
	}
	r := rand.New(rand.NewSource(2))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 400; trial++ {
		x := make([]float64, ls.N)
		scale := math.Pow(10, float64(r.Intn(30)-20))
		for j := range x {
			x[j] = solution[j] + r.NormFloat64()*scale
		}
		for k := trial % 3; k > 0; k-- {
			x[r.Intn(ls.N)] = specials[r.Intn(len(specials))]
		}
		res := ls.Residual(x)
		for _, tol := range []float64{
			0, -1, math.NaN(), math.Inf(1), 1e-300,
			res, math.Nextafter(res, math.Inf(1)), math.Nextafter(res, math.Inf(-1)),
		} {
			if got, want := ls.residualBelow(x, tol), res < tol; got != want {
				t.Fatalf("x=%v tol=%v: residualBelow = %v, Residual = %v", x, tol, got, res)
			}
		}
	}
}

// TestDivergedSolveDoesNotConverge: on a system Jacobi cannot solve the
// estimate grows threefold per iteration, overflows to ±Inf and turns NaN
// after about 650 iterations. A NaN row must keep the residual from meeting
// any tolerance, so both the sequential and the barrier solver run out their
// iterations and the barrier solver reports no convergence.
func TestDivergedSolveDoesNotConverge(t *testing.T) {
	ls := &LinearSystem{N: 2, A: [][]float64{{1, 3}, {3, 1}}, B: []float64{1, 1}}
	const maxIters = 1000
	x, iters := ls.SolveJacobiSequential(1e-8, maxIters)
	if iters != maxIters {
		t.Fatalf("sequential Jacobi stopped after %d of %d iterations at x=%v", iters, maxIters, x)
	}
	if r := ls.Residual(x); !math.IsNaN(r) {
		t.Fatalf("Residual(%v) = %v, want NaN", x, r)
	}
	results := make([]SolveResult, 3)
	runMixed(t, 3, func(p *core.Proc) {
		results[p.ID()] = SolveBarrier(p, ls, SolveOptions{Tol: 1e-8, MaxIters: maxIters})
	})
	for id, res := range results {
		if res.Converged || res.Iters != maxIters {
			t.Fatalf("proc %d: converged=%v after %d iterations at x=%v, want no convergence after %d",
				id, res.Converged, res.Iters, res.X, maxIters)
		}
	}
}

// TestSolveBarrierMatchesSequentialBitForBit runs the barrier solver and the
// sequential reference for the same fixed number of iterations (the tolerance
// is unreachable). Both sum every row through dot in the same order, so the
// estimates are identical, not merely close — what bench/e2e's epoch
// verification relies on. 25 unknowns over three workers exercise uneven
// blocks and dot's tail.
func TestSolveBarrierMatchesSequentialBitForBit(t *testing.T) {
	ls := GenDiagDominant(25, 3)
	const iters = 40
	ref, refIters := ls.SolveJacobiSequential(1e-300, iters)
	if refIters != iters {
		t.Fatalf("sequential Jacobi ran %d iterations, want %d", refIters, iters)
	}
	results := make([]SolveResult, 4)
	runMixed(t, 4, func(p *core.Proc) {
		results[p.ID()] = SolveBarrier(p, ls, SolveOptions{Tol: 1e-300, MaxIters: iters})
	})
	for id, res := range results {
		if res.Iters != iters {
			t.Fatalf("proc %d ran %d iterations, want %d", id, res.Iters, iters)
		}
		if d := MaxAbsDiff(res.X, ref); d != 0 {
			t.Fatalf("proc %d differs from sequential Jacobi by %g", id, d)
		}
	}
}
