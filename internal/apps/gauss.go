package apps

import (
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/history"
)

// SolveAsyncPRAM is the Section 7 observation turned into a program:
// asynchronous relaxation (chaotic Gauss–Seidel/Jacobi) converges for
// diagonally dominant systems even under plain PRAM, with no barriers, no
// locks, and no awaits during the sweep. Each process repeatedly recomputes
// its own rows from whatever estimates its PRAM view currently holds —
// stale, reordered across writers, anything PRAM allows — and the iteration
// still contracts (Chazan–Miranker style asynchronous convergence).
//
// rounds fixes the number of local sweeps. Convergence of chaotic iteration
// requires that communication keeps pace with computation (Chazan–Miranker's
// bounded-staleness condition); a spin of pure memory operations on the
// simulated fabric would outrun delivery entirely, so each sweep charges a
// small fixed compute time during which updates flow. A single barrier at
// the end collects the final estimate. Every process must call
// SolveAsyncPRAM.
func SolveAsyncPRAM(p core.Process, ls *LinearSystem, rounds int) SolveResult {
	const computeTimePerSweep = 50 * time.Microsecond
	lo, hi := blockRange(ls.N, p.N(), p.ID())

	x := make([]float64, ls.N)
	xs := ls.xNames()
	for r := 0; r < rounds; r++ {
		// Read the whole estimate with PRAM reads — no synchronization at
		// all, so values may be arbitrarily stale or mutually inconsistent.
		for j := 0; j < ls.N; j++ {
			x[j] = core.ReadPRAMFloat(p, xs[j])
		}
		for i := lo; i < hi; i++ {
			// Gauss–Seidel flavor: use own freshly computed values within
			// the sweep.
			x[i] = ls.jacobiRow(i, x)
			core.WriteFloat(p, xs[i], x[i])
		}
		time.Sleep(computeTimePerSweep)
	}
	p.Barrier()
	for j := 0; j < ls.N; j++ {
		x[j] = core.ReadPRAMFloat(p, xs[j])
	}
	return SolveResult{X: x, Iters: rounds, Converged: true}
}

// SlowEstimateLabels labels every estimate cell of an n-variable system Slow,
// for configuring a system that runs SolveAsyncSlow. Each cell has exactly
// one writer (the process that owns its row), so per-location FIFO already
// delivers each reader a monotone sequence of refinements — the full
// per-sender ordering that PRAM adds buys nothing here.
func SlowEstimateLabels(n int) map[string]history.Label {
	labels := make(map[string]history.Label, n)
	for i := 0; i < n; i++ {
		labels[xVar(i)] = history.LabelSlow
	}
	return labels
}

// SolveAsyncSlow is SolveAsyncPRAM pushed to the bottom of the lattice:
// the same chaotic relaxation, but the estimate cells are labeled Slow (see
// SlowEstimateLabels) and every read during the sweep is a slow read.
// Convergence survives because the Chazan–Miranker condition only needs each
// reader's view of each cell to advance through that cell's write sequence —
// a per-location, per-writer guarantee, which is exactly what slow memory
// keeps. The writes also shed their vector timestamps on the wire, so this
// is the cheapest point of the spectrum that still solves the system. A
// single barrier collects the final estimate; the collection reads stay slow
// because the barrier itself guarantees all prior-phase updates are applied.
// Every process must call SolveAsyncSlow, on a system whose Labels include
// SlowEstimateLabels(ls.N).
func SolveAsyncSlow(p core.Process, ls *LinearSystem, rounds int) SolveResult {
	const computeTimePerSweep = 50 * time.Microsecond
	lo, hi := blockRange(ls.N, p.N(), p.ID())

	x := make([]float64, ls.N)
	xs := ls.xNames()
	for r := 0; r < rounds; r++ {
		for j := 0; j < ls.N; j++ {
			x[j] = core.ReadSlowFloat(p, xs[j])
		}
		for i := lo; i < hi; i++ {
			x[i] = ls.jacobiRow(i, x)
			core.WriteFloat(p, xs[i], x[i])
		}
		time.Sleep(computeTimePerSweep)
	}
	p.Barrier()
	for j := 0; j < ls.N; j++ {
		x[j] = core.ReadSlowFloat(p, xs[j])
	}
	return SolveResult{X: x, Iters: rounds, Converged: true}
}
