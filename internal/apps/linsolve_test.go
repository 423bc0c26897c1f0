package apps

import (
	"math"
	"testing"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/history"
)

func runMixed(t *testing.T, procs int, body func(p *core.Proc)) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Procs: procs})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	sys.Run(body)
	return sys
}

func TestGenDiagDominantIsDominant(t *testing.T) {
	ls := GenDiagDominant(16, 1)
	for i := 0; i < ls.N; i++ {
		var off float64
		for j := 0; j < ls.N; j++ {
			if i != j {
				if ls.A[i][j] < -1 || ls.A[i][j] > 1 {
					t.Fatalf("off-diagonal out of range: %v", ls.A[i][j])
				}
				off += math.Abs(ls.A[i][j])
			}
		}
		if ls.A[i][i] <= off {
			t.Fatalf("row %d not strictly dominant: %v <= %v", i, ls.A[i][i], off)
		}
	}
}

func TestGenDiagDominantDeterministic(t *testing.T) {
	a := GenDiagDominant(8, 42)
	b := GenDiagDominant(8, 42)
	for i := range a.A {
		for j := range a.A[i] {
			if a.A[i][j] != b.A[i][j] {
				t.Fatal("generator not deterministic")
			}
		}
	}
	c := GenDiagDominant(8, 43)
	if a.A[0][1] == c.A[0][1] {
		t.Error("different seeds produced identical entries")
	}
}

func TestSolveDirect(t *testing.T) {
	ls := GenDiagDominant(12, 7)
	x, err := ls.SolveDirect()
	if err != nil {
		t.Fatalf("SolveDirect: %v", err)
	}
	if r := ls.Residual(x); r > 1e-9 {
		t.Fatalf("direct residual = %v", r)
	}
}

func TestSolveJacobiSequentialConverges(t *testing.T) {
	ls := GenDiagDominant(12, 7)
	x, iters := ls.SolveJacobiSequential(1e-9, 500)
	if iters >= 500 {
		t.Fatalf("Jacobi did not converge in %d iters", iters)
	}
	direct, _ := ls.SolveDirect()
	if d := MaxAbsDiff(x, direct); d > 1e-7 {
		t.Fatalf("Jacobi differs from direct by %v", d)
	}
}

func TestRowRangeCoversAllRows(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {7, 7}, {5, 2}, {16, 4}, {3, 5},
	} {
		covered := make([]int, tc.n)
		for w := 1; w <= tc.workers; w++ {
			lo, hi := rowRange(tc.n, tc.workers, w)
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: row %d covered %d times",
					tc.n, tc.workers, i, c)
			}
		}
	}
}

func TestSolveBarrierMatchesDirect(t *testing.T) {
	ls := GenDiagDominant(12, 3)
	direct, _ := ls.SolveDirect()
	results := make([]SolveResult, 4)
	runMixed(t, 4, func(p *core.Proc) {
		results[p.ID()] = SolveBarrier(p, ls, SolveOptions{Tol: 1e-9})
	})
	for id, res := range results {
		if !res.Converged {
			t.Fatalf("proc %d did not converge (%d iters)", id, res.Iters)
		}
		if d := MaxAbsDiff(res.X, direct); d > 1e-7 {
			t.Fatalf("proc %d off by %v", id, d)
		}
	}
	// All processes agree on the iteration count.
	for id := 1; id < 4; id++ {
		if results[id].Iters != results[0].Iters {
			t.Fatalf("iteration counts disagree: %d vs %d",
				results[id].Iters, results[0].Iters)
		}
	}
}

func TestSolveBarrierSingleWorker(t *testing.T) {
	ls := GenDiagDominant(6, 9)
	direct, _ := ls.SolveDirect()
	var res SolveResult
	runMixed(t, 2, func(p *core.Proc) {
		r := SolveBarrier(p, ls, SolveOptions{Tol: 1e-9})
		if p.ID() == 1 {
			res = r
		}
	})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if d := MaxAbsDiff(res.X, direct); d > 1e-7 {
		t.Fatalf("off by %v", d)
	}
}

func TestSolveBarrierIsPRAMConsistentProgram(t *testing.T) {
	// Record a small barrier-solver run on an integer-friendly scale is
	// not possible (floats violate the unique-value convention), but the
	// phase discipline can still be checked structurally: run the solver
	// and assert it used only PRAM reads.
	ls := GenDiagDominant(6, 5)
	sys := runMixed(t, 3, func(p *core.Proc) {
		SolveBarrier(p, ls, SolveOptions{Tol: 1e-8})
	})
	for i := 0; i < 3; i++ {
		if s := sys.Proc(i).MemStats(); s.CausalReads != 0 {
			t.Fatalf("proc %d used %d causal reads; Figure 2 needs none", i, s.CausalReads)
		}
	}
}

func TestSolveHandshakeCausalMatchesDirect(t *testing.T) {
	ls := GenDiagDominant(10, 11)
	direct, _ := ls.SolveDirect()
	results := make([]SolveResult, 3)
	runMixed(t, 3, func(p *core.Proc) {
		results[p.ID()] = SolveHandshake(p, ls, SolveOptions{
			Tol: 1e-9, ReadLabel: history.LabelCausal,
		})
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

func TestSolveHandshakeMatchesBarrierIterations(t *testing.T) {
	// Both solvers implement the same Jacobi iteration, so with the same
	// tolerance they converge in the same number of iterations — the
	// difference the paper measures is synchronization cost, not numerics.
	ls := GenDiagDominant(8, 2)
	var barrierIters, handshakeIters int
	runMixed(t, 3, func(p *core.Proc) {
		r := SolveBarrier(p, ls, SolveOptions{Tol: 1e-9})
		if p.ID() == 0 {
			barrierIters = r.Iters
		}
	})
	runMixed(t, 3, func(p *core.Proc) {
		r := SolveHandshake(p, ls, SolveOptions{Tol: 1e-9})
		if p.ID() == 0 {
			handshakeIters = r.Iters
		}
	})
	// The barrier solver needs one extra iteration to observe convergence
	// (done is decided at the top of the next round); allow a difference
	// of at most one.
	if d := barrierIters - handshakeIters; d < -1 || d > 1 {
		t.Fatalf("iteration counts diverge: barrier=%d handshake=%d",
			barrierIters, handshakeIters)
	}
}

// TestHandshakePRAMInsufficient is experiment E3: the paper's claim that
// PRAM reads are insufficient for the handshake program (Section 5.1). The
// estimate updates of worker 1 reach worker 2 only transitively through the
// coordinator, so with an adversarially delayed (but FIFO-legal) channel
// from worker 1 to worker 2, a PRAM read at worker 2 returns a stale
// estimate after the handshake has already fired. A causal read cannot: the
// causal await refuses to fire until the transitive dependencies arrive.
func TestHandshakePRAMInsufficient(t *testing.T) {
	run := func(label history.Label) float64 {
		sys, err := core.NewSystem(core.Config{Procs: 3})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		defer sys.Close()
		// Hold the direct channel worker1 -> worker2; the handshake still
		// flows worker1 -> coordinator -> worker2.
		if err := sys.Fabric().Hold(1, 2); err != nil {
			t.Fatalf("Hold: %v", err)
		}
		// Release the channel shortly after, so causal awaits unblock.
		release := time.AfterFunc(50*time.Millisecond, func() {
			_ = sys.Fabric().Release(1, 2)
		})
		defer release.Stop()

		var got float64
		sys.Run(func(p *core.Proc) {
			switch p.ID() {
			case 1: // producing worker
				core.WriteFloat(p, "est", 10)
				p.Write("computed", 1)
			case 0: // coordinator
				p.Await("computed", 1)
				p.Write("go", 1)
			case 2: // consuming worker
				if label == history.LabelPRAM {
					p.AwaitPRAM("go", 1)
					got = core.ReadPRAMFloat(p, "est")
				} else {
					p.Await("go", 1)
					got = core.ReadCausalFloat(p, "est")
				}
			}
		})
		return got
	}

	if got := run(history.LabelPRAM); got != 0 {
		t.Fatalf("PRAM read returned %v; expected the stale initial 0", got)
	}
	if got := run(history.LabelCausal); got != 10 {
		t.Fatalf("causal read returned %v; expected the fresh 10", got)
	}
}

func TestSolveHandshakePRAMStillTerminates(t *testing.T) {
	// Without an adversarial network the PRAM-labeled handshake solver
	// usually computes the right answer (the race rarely fires on a fast
	// fabric); the paper's point is that it is not *guaranteed*. Check it
	// at least terminates and reports an iteration count.
	ls := GenDiagDominant(6, 4)
	runMixed(t, 3, func(p *core.Proc) {
		res := SolveHandshake(p, ls, SolveOptions{
			Tol: 1e-8, MaxIters: 200, ReadLabel: history.LabelPRAM,
		})
		if res.Iters == 0 {
			t.Error("no iterations executed")
		}
	})
}
