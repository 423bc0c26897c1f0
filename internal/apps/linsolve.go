package apps

import (
	"strconv"

	"mixedmem/internal/core"
	"mixedmem/internal/history"
)

// SolveOptions configures the iterative solvers.
type SolveOptions struct {
	// Tol is the residual tolerance for convergence.
	Tol float64
	// MaxIters bounds the number of iterations.
	MaxIters int
	// ReadLabel selects the consistency of the matrix reads in the
	// handshake solver: LabelCausal is the paper's correct choice
	// (Figure 3); LabelPRAM reproduces the insufficiency discussed in
	// Section 5.1. The barrier solver always uses PRAM reads (Figure 2).
	ReadLabel history.Label
}

func (o *SolveOptions) fill() {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxIters == 0 {
		o.MaxIters = 500
	}
	if o.ReadLabel == history.LabelNone {
		o.ReadLabel = history.LabelCausal
	}
}

// SolveResult reports a solver run.
type SolveResult struct {
	// X is the final estimate, read back by this process.
	X []float64
	// Iters is the number of iterations executed.
	Iters int
	// Converged tells whether the tolerance was met within MaxIters.
	Converged bool
}

// SolveBarrier is the synchronous iterative equation solver with barriers of
// Figure 2: process 0 is the coordinator checking convergence, processes
// 1..N-1 are workers each owning a block of rows. In each iteration the
// workers read the whole estimate with PRAM reads and compute new values
// into local temporaries (first subphase), cross a barrier, install the new
// estimates (second subphase), and cross a second barrier. Since no shared
// variable is both read and written in the same subphase, the program is
// PRAM-consistent and, by Corollary 2, PRAM reads make it behave
// sequentially consistently.
//
// Every process must call SolveBarrier; it returns the same result on all of
// them. The system must have at least 2 processes.
func SolveBarrier(p core.Process, ls *LinearSystem, opts SolveOptions) SolveResult {
	opts.fill()
	coordinator := p.ID() == 0
	workers := p.N() - 1
	var lo, hi int
	if !coordinator {
		lo, hi = rowRange(ls.N, workers, p.ID())
	}
	temp := make([]float64, ls.N)
	x := make([]float64, ls.N)
	xs := ls.xNames()

	readX := func() {
		for j := 0; j < ls.N; j++ {
			x[j] = core.ReadPRAMFloat(p, xs[j])
		}
	}

	iters := 0
	converged := false
	for iter := 1; iter <= opts.MaxIters; iter++ {
		iters = iter
		// Subphase A: everyone reads the estimate; the coordinator decides
		// convergence and writes done; workers compute local temporaries.
		readX()
		if coordinator {
			if ls.residualBelow(x, opts.Tol) {
				p.Write("done", 1)
			}
		} else {
			for i := lo; i < hi; i++ {
				temp[i] = ls.jacobiRow(i, x)
			}
		}
		p.Barrier()
		// Subphase B: done (written in A) is read; workers install the new
		// estimates unless the run is over.
		d := p.ReadPRAM("done")
		if d == 0 && !coordinator {
			for i := lo; i < hi; i++ {
				core.WriteFloat(p, xs[i], temp[i])
			}
		}
		p.Barrier()
		if d == 1 {
			converged = true
			break
		}
	}
	readX()
	return SolveResult{X: x, Iters: iters, Converged: converged}
}

// handshake variable names of Figure 3.
func computedVar(i int) string { return "computed" + strconv.Itoa(i) }
func updatedVar(i int) string  { return "updated" + strconv.Itoa(i) }

// SolveHandshake is the iterative equation solver with handshaking of
// Figure 3: no barriers are available, so the coordinator synchronizes the
// workers through computed[i]/updated[i] handshake variables and await
// statements. The paper shows PRAM reads are insufficient here — the
// estimate updates of worker j reach worker i only transitively through the
// coordinator — and uses causal reads (Theorem 1: all operations unrelated
// by causality commute).
//
// Every process must call SolveHandshake. opts.ReadLabel selects the matrix
// read consistency; LabelCausal is the correct configuration.
func SolveHandshake(p core.Process, ls *LinearSystem, opts SolveOptions) SolveResult {
	opts.fill()
	coordinator := p.ID() == 0
	workers := p.N() - 1

	read := func(loc string) int64 {
		if opts.ReadLabel == history.LabelPRAM {
			return p.ReadPRAM(loc)
		}
		return p.ReadCausal(loc)
	}
	readFloat := func(loc string) float64 {
		if opts.ReadLabel == history.LabelPRAM {
			return core.ReadPRAMFloat(p, loc)
		}
		return core.ReadCausalFloat(p, loc)
	}
	await := func(loc string, v int64) {
		if opts.ReadLabel == history.LabelPRAM {
			p.AwaitPRAM(loc, v)
		} else {
			p.Await(loc, v)
		}
	}

	x := make([]float64, ls.N)
	xs := ls.xNames()
	readX := func() {
		for j := 0; j < ls.N; j++ {
			x[j] = readFloat(xs[j])
		}
	}

	phase := int64(0)
	iters := 0
	converged := false

	// awaitAll is the coordinator's "forall i do await(...)" of Figure 3:
	// one concurrent strand per worker, joined before proceeding.
	awaitAll := func(varOf func(int) string, v int64) {
		p.Forall(workers, func(i int, th core.ThreadOps) {
			if opts.ReadLabel == history.LabelPRAM {
				th.AwaitPRAM(varOf(i+1), v)
			} else {
				th.Await(varOf(i+1), v)
			}
		})
	}

	if coordinator {
		for read("done") == 0 && iters < opts.MaxIters {
			iters++
			phase++
			awaitAll(computedVar, phase)
			for i := 1; i <= workers; i++ {
				p.Write(computedVar(i), -phase)
			}
			awaitAll(updatedVar, phase)
			readX()
			if ls.residualBelow(x, opts.Tol) {
				p.Write("done", 1)
				converged = true
			}
			for i := 1; i <= workers; i++ {
				p.Write(updatedVar(i), -phase)
			}
		}
		// Workers re-check done right after their final await fires; the
		// done write precedes the updated[i] writes in the coordinator's
		// program order, so both causal and PRAM reads observe it there.
	} else {
		me := p.ID()
		temp := make([]float64, ls.N)
		lo, hi := rowRange(ls.N, workers, me)
		for read("done") == 0 && iters < opts.MaxIters {
			iters++
			phase++
			readX()
			for i := lo; i < hi; i++ {
				temp[i] = ls.jacobiRow(i, x)
			}
			p.Write(computedVar(me), phase)
			await(computedVar(me), -phase)
			for i := lo; i < hi; i++ {
				core.WriteFloat(p, xs[i], temp[i])
			}
			p.Write(updatedVar(me), phase)
			await(updatedVar(me), -phase)
		}
		converged = read("done") == 1
	}
	readX()
	return SolveResult{X: x, Iters: iters, Converged: converged}
}
