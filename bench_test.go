package mixedmem_test

// One benchmark per experiment of EXPERIMENTS.md, regenerating the paper's
// figures and claims under the Go benchmark harness. The fabric runs with
// zero modeled latency here so iterations stay fast; protocol costs are
// reported as custom metrics (msgs/op, iters/op) and the wall-clock ordering
// between competing variants is the paper's claim. cmd/mixedbench runs the
// same experiments under a realistic latency model.

import (
	"fmt"
	"testing"

	"mixedmem/internal/apps"
	"mixedmem/internal/bench"
	"mixedmem/internal/check"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
)

var zeroLatency = network.LatencyModel{}

// --- E1: Figure 1 -----------------------------------------------------------

func BenchmarkFigure1Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure1()
		if err != nil || !r.PropertiesHold {
			b.Fatalf("figure 1 failed: %v %+v", err, r)
		}
	}
}

// --- E2: Figure 2 vs Figure 3 ------------------------------------------------

func benchSolver(b *testing.B, handshake bool) {
	b.Helper()
	ls := apps.GenDiagDominant(16, 1)
	var msgs uint64
	var iters int
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{Procs: 4, Latency: zeroLatency})
		if err != nil {
			b.Fatal(err)
		}
		var res apps.SolveResult
		sys.Run(func(p *core.Proc) {
			var r apps.SolveResult
			if handshake {
				r = apps.SolveHandshake(p, ls, apps.SolveOptions{Tol: 1e-8})
			} else {
				r = apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-8})
			}
			if p.ID() == 0 {
				res = r
			}
		})
		if ls.Residual(res.X) > 1e-7 {
			b.Fatalf("solver did not converge: residual %v", ls.Residual(res.X))
		}
		msgs += sys.NetStats().MessagesSent
		iters = res.Iters
		sys.Close()
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(iters), "iters")
}

func BenchmarkLinSolveBarrier(b *testing.B)   { benchSolver(b, false) }
func BenchmarkLinSolveHandshake(b *testing.B) { benchSolver(b, true) }

// --- E3: PRAM insufficiency ---------------------------------------------------

func BenchmarkPRAMInsufficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunPRAMInsufficiency()
		if err != nil || !r.Demonstrated {
			b.Fatalf("not demonstrated: %v %+v", err, r)
		}
	}
}

// --- E4: Figure 4 -------------------------------------------------------------

func BenchmarkEMField(b *testing.B) {
	prob := apps.GenEMProblem(64, 20, 1)
	var msgs uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{Procs: 4, Latency: zeroLatency})
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(func(p *core.Proc) {
			apps.SolveEMField(p, prob, apps.SolveOptions{})
		})
		msgs += sys.NetStats().MessagesSent
		sys.Close()
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func BenchmarkEMFieldSequentialReference(b *testing.B) {
	prob := apps.GenEMProblem(64, 20, 1)
	for i := 0; i < b.N; i++ {
		prob.SolveSequential()
	}
}

// --- E5: Figure 5 -------------------------------------------------------------

func benchCholesky(b *testing.B, counters bool) {
	b.Helper()
	m := apps.GenSparseSPD(24, 0.3, 1)
	ref, err := m.CholeskySequential()
	if err != nil {
		b.Fatal(err)
	}
	var msgs uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{Procs: 4, Latency: zeroLatency})
		if err != nil {
			b.Fatal(err)
		}
		var res apps.CholeskyResult
		sys.Run(func(p *core.Proc) {
			var r apps.CholeskyResult
			if counters {
				r = apps.CholeskyCounters(p, m, apps.SolveOptions{})
			} else {
				r = apps.CholeskyLocks(p, m, apps.SolveOptions{})
			}
			if p.ID() == 0 {
				res = r
			}
		})
		if d := m.FactorError(res.L, ref); d > 1e-6 {
			b.Fatalf("factor error %v", d)
		}
		msgs += sys.NetStats().MessagesSent
		sys.Close()
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func BenchmarkCholeskyLocks(b *testing.B)    { benchCholesky(b, false) }
func BenchmarkCholeskyCounters(b *testing.B) { benchCholesky(b, true) }

// --- E6: propagation modes ----------------------------------------------------

func benchPropagation(b *testing.B, mode syncmgr.PropagationMode) {
	b.Helper()
	w := bench.PropagationWorkload{Procs: 4, Handoffs: 8, WritesPerCS: 8}
	var msgs uint64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunPropagation(mode, w, zeroLatency, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		msgs += r.Msgs
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func BenchmarkLockPropagationEager(b *testing.B)  { benchPropagation(b, syncmgr.Eager) }
func BenchmarkLockPropagationLazy(b *testing.B)   { benchPropagation(b, syncmgr.Lazy) }
func BenchmarkLockPropagationDemand(b *testing.B) { benchPropagation(b, syncmgr.DemandDriven) }

// --- E7: asynchronous relaxation ------------------------------------------------

func BenchmarkGaussSeidelPRAM(b *testing.B) {
	ls := apps.GenDiagDominant(16, 1)
	direct, err := ls.SolveDirect()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{Procs: 4})
		if err != nil {
			b.Fatal(err)
		}
		var res apps.SolveResult
		sys.Run(func(p *core.Proc) {
			r := apps.SolveAsyncPRAM(p, ls, 60)
			if p.ID() == 0 {
				res = r
			}
		})
		if d := apps.MaxAbsDiff(res.X, direct); d > 1e-5 {
			b.Fatalf("did not converge: %v", d)
		}
		sys.Close()
	}
}

// --- E8S: access latency, weak labels vs SC ------------------------------------

func BenchmarkMemoryLatencyMixedWrite(b *testing.B) {
	sys, err := core.NewSystem(core.Config{Procs: 2, Latency: zeroLatency})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	p := sys.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Write("w", int64(i+1))
	}
}

func BenchmarkMemoryLatencyPRAMRead(b *testing.B) {
	sys, err := core.NewSystem(core.Config{Procs: 2, Latency: zeroLatency})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	p := sys.Proc(0)
	p.Write("w", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadPRAM("w")
	}
}

func BenchmarkMemoryLatencyCausalRead(b *testing.B) {
	sys, err := core.NewSystem(core.Config{Procs: 2, Latency: zeroLatency})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	p := sys.Proc(0)
	p.Write("w", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadCausal("w")
	}
}

// scSystem starts a 2-process system with one SC-labelled location whose
// dsm.SCOwner is process 1, so process 0's accesses pay the owner round trip
// rather than the self-owner fast path.
func scSystem(b *testing.B) (*core.Proc, string) {
	b.Helper()
	loc := "w"
	for i := 0; dsm.SCOwner(loc, 2) != 1; i++ {
		loc = fmt.Sprintf("w%d", i)
	}
	sys, err := core.NewSystem(core.Config{
		Procs: 2, Latency: zeroLatency,
		Labels: map[string]history.Label{loc: history.LabelSC},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	return sys.Proc(0), loc
}

func BenchmarkMemoryLatencySCWrite(b *testing.B) {
	p, loc := scSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Write(loc, int64(i+1))
	}
}

func BenchmarkMemoryLatencySCRead(b *testing.B) {
	p, loc := scSystem(b)
	p.Write(loc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadSC(loc)
	}
}

// --- E9 and checker internals ----------------------------------------------------

func BenchmarkCorollaryCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, locks, err := core.RunRandomEntryConsistent(core.RandomEntryConsistentConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		a, err := h.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if len(check.Mixed(a)) != 0 || len(check.EntryConsistent(h, locks)) != 0 {
			b.Fatal("violation in entry-consistent run")
		}
		ok, _, err := check.SequentiallyConsistent(a)
		if err != nil || !ok {
			b.Fatalf("not SC: %v", err)
		}
	}
}

func BenchmarkHistoryAnalysis(b *testing.B) {
	// Analysis cost on a mid-size recorded history.
	h, _, err := core.RunRandomEntryConsistent(core.RandomEntryConsistentConfig{
		Procs: 4, Vars: 3, OpsPerProc: 6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCCheck(b *testing.B) {
	bld := history.NewBuilder(3)
	for p := 0; p < 3; p++ {
		for i := 0; i < 6; i++ {
			bld.Write(p, "x", int64(p*100+i+1))
		}
	}
	h := bld.History()
	a, err := h.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := check.SequentiallyConsistent(a)
		if err != nil || !ok {
			b.Fatalf("unexpected: ok=%v err=%v", ok, err)
		}
	}
}

// --- A1/A2 ablations -------------------------------------------------------------

func BenchmarkTimestampElision(b *testing.B) {
	var fullBytes, elidedBytes uint64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTimestampAblation(12, 3, zeroLatency, 1)
		if err != nil || !r.ResidualsMatch {
			b.Fatalf("ablation failed: %v %+v", err, r)
		}
		fullBytes, elidedBytes = r.FullBytes, r.ElidedBytes
	}
	b.ReportMetric(float64(fullBytes), "bytes-full")
	b.ReportMetric(float64(elidedBytes), "bytes-elided")
}

func BenchmarkPropagationCostSweep(b *testing.B) {
	lat := network.LatencyModel{Fixed: 50 * 1000} // 50µs
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPropagationCostSweep(5, 50, lat); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: producer/consumer via awaits --------------------------------------------

func benchPipeline(b *testing.B, locks bool) {
	b.Helper()
	cfg := apps.PipelineConfig{Items: 20, Seed: 1}
	ref := apps.PipelineSequential(cfg, 2)
	var msgs uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{Procs: 3, Latency: zeroLatency})
		if err != nil {
			b.Fatal(err)
		}
		var out []int64
		sys.Run(func(p *core.Proc) {
			var r []int64
			if locks {
				r = apps.PipelineLocks(p, cfg)
			} else {
				r = apps.PipelineAwait(p, cfg)
			}
			if r != nil {
				out = r
			}
		})
		if len(out) != len(ref) || out[len(out)-1] != ref[len(ref)-1] {
			b.Fatal("pipeline output mismatch")
		}
		msgs += sys.NetStats().MessagesSent
		sys.Close()
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func BenchmarkPipelineAwait(b *testing.B) { benchPipeline(b, false) }
func BenchmarkPipelineLocks(b *testing.B) { benchPipeline(b, true) }
