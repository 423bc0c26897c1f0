// Package bench implements the experiment harness: one runner per
// EXPERIMENTS.md entry (E1–E9), each reproducing a figure or claim of the
// paper and returning a structured result that cmd/mixedbench prints and
// bench_test.go asserts on.
//
// Runners take a network latency model so the relative costs the paper
// discusses (synchronization rounds, message counts, blocking time) are
// visible; tests use the zero model for speed and benchmarks use
// DefaultLatency. The runners that also make sense over real sockets (E8,
// E8S, A3, S1, PERF) take a Substrate instead — the latency model or tcp, as
// data — and have one body for both; the rest need transport.Faults or a
// modeled latency and stay on the simulated fabric.
package bench

import (
	"fmt"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
)

// DefaultLatency models a 1994-class local-area network: a fixed per-message
// cost dominating a small per-byte cost. Relative protocol costs — the only
// thing the reproduction asserts — are insensitive to the absolute scale.
var DefaultLatency = network.LatencyModel{
	Fixed:   200 * time.Microsecond,
	PerByte: 10 * time.Nanosecond,
}

// Figure1Result summarizes experiment E1: the synchronization orders of the
// paper's Figure 1 example, derived by the formal checker.
type Figure1Result struct {
	Ops            int
	LockOrderPairs int
	BarrierPairs   int
	CausalityPairs int
	PropertiesHold bool
}

// String renders the result as a report line.
func (r Figure1Result) String() string {
	return fmt.Sprintf("ops=%d |->lock pairs=%d |->bar pairs=%d causality pairs=%d properties hold=%v",
		r.Ops, r.LockOrderPairs, r.BarrierPairs, r.CausalityPairs, r.PropertiesHold)
}

// RunFigure1 builds the Figure 1 history — two read holds, a write hold, and
// two more read holds on one lock, followed by a barrier into the next
// phase — and derives its synchronization orders, verifying the three
// |->lock properties of Section 3.1.1.
func RunFigure1() (Figure1Result, error) {
	b := history.NewBuilder(3)
	e0 := b.NextEpoch("l")
	b.RLockEpoch(0, "l", e0)
	b.RUnlockEpoch(0, "l", e0)
	b.RLockEpoch(1, "l", e0)
	b.RUnlockEpoch(1, "l", e0)
	eW := b.WLockEpoch(2, "l")
	wl := b.Len() - 1
	wu := b.WUnlockEpoch(2, "l", eW)
	e2 := b.NextEpoch("l")
	b.RLockEpoch(0, "l", e2)
	b.RUnlockEpoch(0, "l", e2)
	b.RLockEpoch(1, "l", e2)
	b.RUnlockEpoch(1, "l", e2)
	b.Barrier(0, 1)
	b.Barrier(1, 1)
	b.Barrier(2, 1)
	b.Write(0, "u", 1)
	b.Write(1, "v", 2)

	h := b.History()
	a, err := h.Analyze()
	if err != nil {
		return Figure1Result{}, fmt.Errorf("figure 1: %w", err)
	}

	// Verify the three properties of Section 3.1.1 on the derived order.
	props := true
	// 1: wl/wu ordered with respect to every rl/ru.
	for _, op := range h.Ops {
		if op.Kind != history.RLock && op.Kind != history.RUnlock {
			continue
		}
		if !a.LockOrder.Has(op.ID, wl) && !a.LockOrder.Has(wu, op.ID) {
			props = false
		}
	}
	// 2: nothing between wl and wu.
	for _, op := range h.Ops {
		if op.ID != wl && op.ID != wu &&
			a.LockOrder.Has(wl, op.ID) && a.LockOrder.Has(op.ID, wu) {
			props = false
		}
	}
	// 3: no wl between an rl and its matching ru (same epoch).
	for _, op := range h.Ops {
		if op.Kind != history.RLock {
			continue
		}
		if a.LockOrder.Has(op.ID, wl) && a.LockOrder.Has(wl, op.ID+1) {
			props = false
		}
	}
	return Figure1Result{
		Ops:            len(h.Ops),
		LockOrderPairs: a.LockOrder.Pairs(),
		BarrierPairs:   a.BarrierOrder.Pairs(),
		CausalityPairs: a.Causality.Pairs(),
		PropertiesHold: props,
	}, nil
}

// SolverComparison is experiment E2: Figure 2 (barriers + PRAM) versus
// Figure 3 (handshaking + causal) on the same system.
type SolverComparison struct {
	N, Procs          int
	BarrierTime       time.Duration
	BarrierIters      int
	BarrierMsgs       uint64
	BarrierResidual   float64
	HandshakeTime     time.Duration
	HandshakeIters    int
	HandshakeMsgs     uint64
	HandshakeResidual float64
}

// String renders the comparison in the shape of the paper's claim.
func (r SolverComparison) String() string {
	return fmt.Sprintf(
		"n=%d procs=%d | barrier: %v, %d iters, %d msgs, resid %.2e | handshake: %v, %d iters, %d msgs, resid %.2e | speedup %.2fx",
		r.N, r.Procs,
		r.BarrierTime.Round(time.Microsecond), r.BarrierIters, r.BarrierMsgs, r.BarrierResidual,
		r.HandshakeTime.Round(time.Microsecond), r.HandshakeIters, r.HandshakeMsgs, r.HandshakeResidual,
		float64(r.HandshakeTime)/float64(r.BarrierTime))
}

// RunSolverComparison solves one seeded diagonally dominant system with both
// Figure 2 and Figure 3 and reports time, iterations, and message counts.
func RunSolverComparison(n, procs int, latency network.LatencyModel, seed int64) (SolverComparison, error) {
	ls := apps.GenDiagDominant(n, seed)
	out := SolverComparison{N: n, Procs: procs}

	{
		sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
		if err != nil {
			return out, fmt.Errorf("solver comparison: %w", err)
		}
		var res apps.SolveResult
		start := time.Now()
		sys.Run(func(p *core.Proc) {
			r := apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-8})
			if p.ID() == 0 {
				res = r
			}
		})
		out.BarrierTime = time.Since(start)
		out.BarrierIters = res.Iters
		out.BarrierMsgs = sys.NetStats().MessagesSent
		out.BarrierResidual = ls.Residual(res.X)
		sys.Close()
	}
	{
		sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
		if err != nil {
			return out, fmt.Errorf("solver comparison: %w", err)
		}
		var res apps.SolveResult
		start := time.Now()
		sys.Run(func(p *core.Proc) {
			r := apps.SolveHandshake(p, ls, apps.SolveOptions{Tol: 1e-8})
			if p.ID() == 0 {
				res = r
			}
		})
		out.HandshakeTime = time.Since(start)
		out.HandshakeIters = res.Iters
		out.HandshakeMsgs = sys.NetStats().MessagesSent
		out.HandshakeResidual = ls.Residual(res.X)
		sys.Close()
	}
	return out, nil
}

// InsufficiencyResult is experiment E3: the stale value a PRAM read returns
// after a transitive handshake versus the fresh value a causal read returns.
type InsufficiencyResult struct {
	PRAMValue   float64
	CausalValue float64
	// Demonstrated is true when the PRAM read was stale and the causal
	// read fresh.
	Demonstrated bool
}

// String renders the result.
func (r InsufficiencyResult) String() string {
	return fmt.Sprintf("PRAM read=%v causal read=%v demonstrated=%v",
		r.PRAMValue, r.CausalValue, r.Demonstrated)
}

// RunPRAMInsufficiency reproduces the Section 5.1 discussion: worker 1's
// estimate update reaches worker 2 only transitively through the
// coordinator. With the direct channel adversarially delayed (still FIFO),
// the PRAM read returns the stale initial value while the causal read waits
// for the dependency and returns the fresh one.
func RunPRAMInsufficiency() (InsufficiencyResult, error) {
	run := func(causal bool) (float64, error) {
		sys, err := core.NewSystem(core.Config{Procs: 3})
		if err != nil {
			return 0, err
		}
		defer sys.Close()
		if err := sys.Fabric().Hold(1, 2); err != nil {
			return 0, err
		}
		timer := time.AfterFunc(30*time.Millisecond, func() {
			_ = sys.Fabric().Release(1, 2)
		})
		defer timer.Stop()
		var got float64
		sys.Run(func(p *core.Proc) {
			switch p.ID() {
			case 1:
				core.WriteFloat(p, "est", 10)
				p.Write("computed", 1)
			case 0:
				p.Await("computed", 1)
				p.Write("go", 1)
			case 2:
				// This benchmark's whole point is reading the same locations
				// under both labels to compare their costs, so the
				// labelconsistency rule is suspended here on purpose.
				if causal {
					p.Await("go", 1)                     //mixedvet:ignore
					got = core.ReadCausalFloat(p, "est") //mixedvet:ignore
				} else {
					p.AwaitPRAM("go", 1)               //mixedvet:ignore
					got = core.ReadPRAMFloat(p, "est") //mixedvet:ignore
				}
			}
		})
		return got, nil
	}
	pram, err := run(false)
	if err != nil {
		return InsufficiencyResult{}, fmt.Errorf("pram insufficiency: %w", err)
	}
	causal, err := run(true)
	if err != nil {
		return InsufficiencyResult{}, fmt.Errorf("pram insufficiency: %w", err)
	}
	return InsufficiencyResult{
		PRAMValue:    pram,
		CausalValue:  causal,
		Demonstrated: pram == 0 && causal == 10,
	}, nil
}

// EMFieldResult is experiment E4.
type EMFieldResult struct {
	Size, Steps, Procs int
	Time               time.Duration
	Msgs               uint64
	UpdateMsgs         uint64
	MaxError           float64
}

// String renders the result.
func (r EMFieldResult) String() string {
	return fmt.Sprintf("grid=%d steps=%d procs=%d time=%v msgs=%d updates=%d max-error=%g",
		r.Size, r.Steps, r.Procs, r.Time.Round(time.Microsecond), r.Msgs, r.UpdateMsgs, r.MaxError)
}

// RunEMField runs the Figure 4 computation and compares against the
// sequential reference.
func RunEMField(size, steps, procs int, latency network.LatencyModel, seed int64) (EMFieldResult, error) {
	prob := apps.GenEMProblem(size, steps, seed)
	refE, refH := prob.SolveSequential()

	sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
	if err != nil {
		return EMFieldResult{}, fmt.Errorf("em field: %w", err)
	}
	defer sys.Close()
	results := make([]apps.EMResult, procs)
	start := time.Now()
	sys.Run(func(p *core.Proc) {
		results[p.ID()] = apps.SolveEMField(p, prob, apps.SolveOptions{})
	})
	elapsed := time.Since(start)

	var worst float64
	for _, res := range results {
		for i := res.Lo; i < res.Hi; i++ {
			if d := absf(res.E[i-res.Lo] - refE[i]); d > worst {
				worst = d
			}
			if d := absf(res.H[i-res.Lo] - refH[i]); d > worst {
				worst = d
			}
		}
	}
	stats := sys.NetStats()
	return EMFieldResult{
		Size: size, Steps: steps, Procs: procs,
		Time: elapsed, Msgs: stats.MessagesSent,
		UpdateMsgs: stats.PerKind["update"],
		MaxError:   worst,
	}, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// CholeskyComparison is experiment E5: the lock-based Figure 5 algorithm
// versus the counter-object variant.
type CholeskyComparison struct {
	N, Procs     int
	LockTime     time.Duration
	LockMsgs     uint64
	LockAcquires uint64
	LockError    float64
	CounterTime  time.Duration
	CounterMsgs  uint64
	CounterError float64
}

// String renders the comparison in the shape of the Section 7 claim.
func (r CholeskyComparison) String() string {
	return fmt.Sprintf(
		"n=%d procs=%d | locks: %v, %d msgs, %d acquires, err %.2e | counters: %v, %d msgs, err %.2e | speedup %.2fx",
		r.N, r.Procs,
		r.LockTime.Round(time.Microsecond), r.LockMsgs, r.LockAcquires, r.LockError,
		r.CounterTime.Round(time.Microsecond), r.CounterMsgs, r.CounterError,
		float64(r.LockTime)/float64(r.CounterTime))
}

// RunCholeskyComparison factorizes one seeded sparse SPD matrix with both
// variants and reports time, message, and lock counts, with factor errors
// against the sequential reference.
func RunCholeskyComparison(n, procs int, density float64, latency network.LatencyModel, seed int64) (CholeskyComparison, error) {
	m := apps.GenSparseSPD(n, density, seed)
	ref, err := m.CholeskySequential()
	if err != nil {
		return CholeskyComparison{}, fmt.Errorf("cholesky comparison: %w", err)
	}
	out := CholeskyComparison{N: n, Procs: procs}

	{
		sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
		if err != nil {
			return out, fmt.Errorf("cholesky comparison: %w", err)
		}
		var res apps.CholeskyResult
		start := time.Now()
		sys.Run(func(p *core.Proc) {
			r := apps.CholeskyLocks(p, m, apps.SolveOptions{})
			if p.ID() == 0 {
				res = r
			}
		})
		out.LockTime = time.Since(start)
		out.LockMsgs = sys.NetStats().MessagesSent
		for i := 0; i < procs; i++ {
			out.LockAcquires += sys.Proc(i).LockStats().Acquires
		}
		out.LockError = m.FactorError(res.L, ref)
		sys.Close()
	}
	{
		sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
		if err != nil {
			return out, fmt.Errorf("cholesky comparison: %w", err)
		}
		var res apps.CholeskyResult
		start := time.Now()
		sys.Run(func(p *core.Proc) {
			r := apps.CholeskyCounters(p, m, apps.SolveOptions{})
			if p.ID() == 0 {
				res = r
			}
		})
		out.CounterTime = time.Since(start)
		out.CounterMsgs = sys.NetStats().MessagesSent
		out.CounterError = m.FactorError(res.L, ref)
		sys.Close()
	}
	return out, nil
}

// PipelineComparison is experiment E10: the Section 2 remark that await
// statements "capture the producer/consumer paradigm in an efficient
// manner", measured against the lock-based polling alternative on the same
// dataflow.
type PipelineComparison struct {
	Items, Stages int
	AwaitTime     time.Duration
	AwaitMsgs     uint64
	LockTime      time.Duration
	LockMsgs      uint64
	OutputsMatch  bool
}

// String renders the comparison.
func (r PipelineComparison) String() string {
	return fmt.Sprintf(
		"items=%d stages=%d | await: %v, %d msgs | locks: %v, %d msgs | speedup %.2fx, outputs match=%v",
		r.Items, r.Stages,
		r.AwaitTime.Round(time.Microsecond), r.AwaitMsgs,
		r.LockTime.Round(time.Microsecond), r.LockMsgs,
		float64(r.LockTime)/float64(r.AwaitTime), r.OutputsMatch)
}

// RunPipelineComparison pushes one stream through both pipeline variants.
func RunPipelineComparison(items, procs int, latency network.LatencyModel, seed int64) (PipelineComparison, error) {
	cfg := apps.PipelineConfig{Items: items, Seed: seed}
	ref := apps.PipelineSequential(cfg, procs-1)
	out := PipelineComparison{Items: items, Stages: procs - 1}

	run := func(locks bool) (time.Duration, uint64, []int64, error) {
		sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
		if err != nil {
			return 0, 0, nil, err
		}
		defer sys.Close()
		var result []int64
		start := time.Now()
		sys.Run(func(p *core.Proc) {
			var r []int64
			if locks {
				r = apps.PipelineLocks(p, cfg)
			} else {
				r = apps.PipelineAwait(p, cfg)
			}
			if r != nil {
				result = r
			}
		})
		return time.Since(start), sys.NetStats().MessagesSent, result, nil
	}

	awaitTime, awaitMsgs, awaitOut, err := run(false)
	if err != nil {
		return out, fmt.Errorf("pipeline comparison (await): %w", err)
	}
	lockTime, lockMsgs, lockOut, err := run(true)
	if err != nil {
		return out, fmt.Errorf("pipeline comparison (locks): %w", err)
	}
	out.AwaitTime, out.AwaitMsgs = awaitTime, awaitMsgs
	out.LockTime, out.LockMsgs = lockTime, lockMsgs
	out.OutputsMatch = equalInt64(awaitOut, ref) && equalInt64(lockOut, ref)
	return out, nil
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EM2DResultRow is the 2-D extension of experiment E4.
type EM2DResultRow struct {
	N, Steps, Procs int
	Time            time.Duration
	UpdateMsgs      uint64
	Exact           bool
}

// String renders the row.
func (r EM2DResultRow) String() string {
	return fmt.Sprintf("grid=%dx%d steps=%d procs=%d time=%v updates=%d exact=%v",
		r.N, r.N, r.Steps, r.Procs, r.Time.Round(time.Microsecond), r.UpdateMsgs, r.Exact)
}

// RunEM2DField runs the 2-D Figure 4 variant and compares against the
// sequential reference.
func RunEM2DField(n, steps, procs int, latency network.LatencyModel, seed int64) (EM2DResultRow, error) {
	prob := apps.GenEM2DProblem(n, steps, seed)
	refEz, refHx, refHy := prob.SolveSequential()

	sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
	if err != nil {
		return EM2DResultRow{}, fmt.Errorf("em 2d: %w", err)
	}
	defer sys.Close()
	results := make([]apps.EM2DResult, procs)
	start := time.Now()
	sys.Run(func(p *core.Proc) {
		results[p.ID()] = apps.SolveEM2DField(p, prob, apps.SolveOptions{})
	})
	elapsed := time.Since(start)

	exact := true
	for _, r := range results {
		for row := r.RLo; row < r.RHi; row++ {
			for c := 0; c < n; c++ {
				l := (row-r.RLo)*n + c
				g := row*n + c
				if r.Ez[l] != refEz[g] || r.Hx[l] != refHx[g] || r.Hy[l] != refHy[g] {
					exact = false
				}
			}
		}
	}
	return EM2DResultRow{
		N: n, Steps: steps, Procs: procs,
		Time: elapsed, UpdateMsgs: sys.NetStats().PerKind["update"],
		Exact: exact,
	}, nil
}

// RedBlackRow compares Jacobi (Figure 2) and red-black Gauss-Seidel sweep
// counts on the same tridiagonal system — both PRAM-consistent programs, the
// second exploiting half-sweep freshness.
type RedBlackRow struct {
	N, Procs               int
	JacobiSweeps, RBSweeps int
	BothMatchDirect        bool
}

// String renders the row.
func (r RedBlackRow) String() string {
	return fmt.Sprintf("n=%d procs=%d | jacobi sweeps=%d, red-black sweeps=%d | both match direct=%v",
		r.N, r.Procs, r.JacobiSweeps, r.RBSweeps, r.BothMatchDirect)
}

// RunRedBlack runs both solvers on one seeded tridiagonal system.
func RunRedBlack(n, procs int, latency network.LatencyModel, seed int64) (RedBlackRow, error) {
	ls := apps.GenTridiagDominant(n, seed)
	direct, err := ls.SolveDirect()
	if err != nil {
		return RedBlackRow{}, fmt.Errorf("red-black: %w", err)
	}
	out := RedBlackRow{N: n, Procs: procs, BothMatchDirect: true}

	run := func(rb bool) (int, []float64, error) {
		sys, err := core.NewSystem(core.Config{Procs: procs, Latency: latency, Seed: seed})
		if err != nil {
			return 0, nil, err
		}
		defer sys.Close()
		var res apps.SolveResult
		sys.Run(func(p *core.Proc) {
			var r apps.SolveResult
			if rb {
				r = apps.SolveRedBlack(p, ls, apps.SolveOptions{Tol: 1e-9})
			} else {
				r = apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-9})
			}
			if p.ID() == 0 {
				res = r
			}
		})
		return res.Iters, res.X, nil
	}

	ji, jx, err := run(false)
	if err != nil {
		return out, fmt.Errorf("red-black (jacobi): %w", err)
	}
	ri, rx, err := run(true)
	if err != nil {
		return out, fmt.Errorf("red-black (rb): %w", err)
	}
	out.JacobiSweeps, out.RBSweeps = ji, ri
	if apps.MaxAbsDiff(jx, direct) > 1e-7 || apps.MaxAbsDiff(rx, direct) > 1e-7 {
		out.BothMatchDirect = false
	}
	return out, nil
}
