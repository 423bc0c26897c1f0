package apps

import (
	"math"
	"testing"

	"mixedmem/internal/core"
)

func TestGenTridiagDominantShape(t *testing.T) {
	ls := GenTridiagDominant(10, 1)
	for i := 0; i < ls.N; i++ {
		for j := 0; j < ls.N; j++ {
			if j < i-1 || j > i+1 {
				if ls.A[i][j] != 0 {
					t.Fatalf("A[%d][%d] = %v, want 0 (tridiagonal)", i, j, ls.A[i][j])
				}
			}
		}
		var off float64
		if i > 0 {
			off += math.Abs(ls.A[i][i-1])
		}
		if i < ls.N-1 {
			off += math.Abs(ls.A[i][i+1])
		}
		if ls.A[i][i] <= off {
			t.Fatalf("row %d not strictly dominant", i)
		}
	}
}

func TestSolveRedBlackMatchesDirect(t *testing.T) {
	ls := GenTridiagDominant(15, 3)
	direct, err := ls.SolveDirect()
	if err != nil {
		t.Fatalf("SolveDirect: %v", err)
	}
	results := make([]SolveResult, 3)
	runMixed(t, 3, func(p *core.Proc) {
		results[p.ID()] = SolveRedBlack(p, ls, SolveOptions{Tol: 1e-9})
	})
	for id, res := range results {
		if !res.Converged {
			t.Fatalf("proc %d did not converge (%d iters)", id, res.Iters)
		}
		if d := MaxAbsDiff(res.X, direct); d > 1e-7 {
			t.Fatalf("proc %d off by %v", id, d)
		}
	}
}

func TestSolveRedBlackFasterThanJacobi(t *testing.T) {
	// Red-black Gauss–Seidel consumes half-sweep-fresh values, so it needs
	// no more sweeps than Jacobi on the same system (strictly fewer on
	// anything nontrivial).
	ls := GenTridiagDominant(16, 7)
	var jacobiIters, rbIters int
	runMixed(t, 3, func(p *core.Proc) {
		r := SolveBarrier(p, ls, SolveOptions{Tol: 1e-9})
		if p.ID() == 0 {
			jacobiIters = r.Iters
		}
	})
	runMixed(t, 3, func(p *core.Proc) {
		r := SolveRedBlack(p, ls, SolveOptions{Tol: 1e-9})
		if p.ID() == 0 {
			rbIters = r.Iters
		}
	})
	if rbIters > jacobiIters {
		t.Fatalf("red-black took %d sweeps, Jacobi %d", rbIters, jacobiIters)
	}
	if rbIters == 0 || jacobiIters == 0 {
		t.Fatal("missing iteration counts")
	}
	t.Logf("sweeps: jacobi=%d red-black=%d", jacobiIters, rbIters)
}

func TestSolveRedBlackUsesOnlyPRAMReads(t *testing.T) {
	ls := GenTridiagDominant(10, 9)
	sys := runMixed(t, 2, func(p *core.Proc) {
		SolveRedBlack(p, ls, SolveOptions{Tol: 1e-8})
	})
	for i := 0; i < 2; i++ {
		if s := sys.Proc(i).MemStats(); s.CausalReads != 0 {
			t.Fatalf("proc %d used causal reads; red-black is a Corollary 2 program", i)
		}
	}
}

func TestSolveRedBlackSingleProc(t *testing.T) {
	ls := GenTridiagDominant(9, 11)
	direct, _ := ls.SolveDirect()
	var res SolveResult
	runMixed(t, 1, func(p *core.Proc) {
		res = SolveRedBlack(p, ls, SolveOptions{Tol: 1e-9})
	})
	if d := MaxAbsDiff(res.X, direct); d > 1e-7 {
		t.Fatalf("off by %v", d)
	}
}
