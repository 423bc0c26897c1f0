package bench

import (
	"fmt"
	"strconv"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/seqmem"
	"mixedmem/internal/syncmgr"
)

// PropagationResult is one row of experiment E6: the cost profile of a
// propagation mode under a lock-handoff workload.
type PropagationResult struct {
	Mode syncmgr.PropagationMode
	// Batch is the outbox MaxUpdates threshold the row ran with; 0 means
	// batching off (one message per write per destination).
	Batch int
	// Time is wall clock for the whole workload.
	Time time.Duration
	// Msgs and Bytes are fabric totals.
	Msgs  uint64
	Bytes uint64
	// UpdateFrames counts update-carrying fabric messages (plain updates
	// plus batch frames) — the quantity batching exists to shrink.
	UpdateFrames uint64
	// FlushMsgs counts the eager flush round trips.
	FlushMsgs uint64
	// AcquireWait is summed lock-acquire blocking across processes.
	AcquireWait time.Duration
	// ReleaseWait is summed eager-flush blocking across processes.
	ReleaseWait time.Duration
}

// String renders one row.
func (r PropagationResult) String() string {
	batch := "off"
	if r.Batch > 0 {
		batch = strconv.Itoa(r.Batch)
	}
	return fmt.Sprintf("%-13s batch=%-4s time=%-10v msgs=%-6d upd-frames=%-6d bytes=%-8d flush=%-5d acquire-wait=%-10v release-wait=%v",
		r.Mode, batch, r.Time.Round(time.Microsecond), r.Msgs, r.UpdateFrames, r.Bytes, r.FlushMsgs,
		r.AcquireWait.Round(time.Microsecond), r.ReleaseWait.Round(time.Microsecond))
}

// PropagationWorkload shapes the E6 workload: each process repeatedly
// acquires a shared lock, writes WritesPerCS locations, and releases. With
// ReadBack false the acquirer never reads the protected data — the case
// where demand-driven propagation avoids all waiting.
type PropagationWorkload struct {
	Procs       int
	Handoffs    int
	WritesPerCS int
	ReadBack    bool
	// Batch configures the update outbox for the run; the zero value is
	// the unbatched baseline.
	Batch dsm.BatchConfig
}

// RunPropagation runs the workload under one propagation mode.
func RunPropagation(mode syncmgr.PropagationMode, w PropagationWorkload, latency network.LatencyModel, seed int64) (PropagationResult, error) {
	sys, err := core.NewSystem(core.Config{
		Procs:       w.Procs,
		Latency:     latency,
		Seed:        seed,
		Propagation: mode,
		Batch:       w.Batch,
	})
	if err != nil {
		return PropagationResult{}, fmt.Errorf("propagation %v: %w", mode, err)
	}
	defer sys.Close()

	start := time.Now()
	sys.Run(func(p *core.Proc) {
		for h := 0; h < w.Handoffs; h++ {
			p.WLock("shared")
			if w.ReadBack {
				for i := 0; i < w.WritesPerCS; i++ {
					p.ReadCausal("data" + strconv.Itoa(i))
				}
			}
			for i := 0; i < w.WritesPerCS; i++ {
				// Distinct values per write keep the workload realistic.
				p.Write("data"+strconv.Itoa(i), int64(p.ID()*1_000_000+h*1000+i))
			}
			p.WUnlock("shared")
		}
	})
	elapsed := time.Since(start)

	stats := sys.NetStats()
	batchSize := 0
	if w.Batch.Enabled {
		batchSize = w.Batch.WithDefaults().MaxUpdates
	}
	out := PropagationResult{
		Mode:         mode,
		Batch:        batchSize,
		Time:         elapsed,
		Msgs:         stats.MessagesSent,
		Bytes:        stats.BytesSent,
		UpdateFrames: stats.PerKind[dsm.KindUpdate] + stats.PerKind[dsm.KindUpdateBatch],
		FlushMsgs:    stats.PerKind[syncmgr.KindFlush] + stats.PerKind[syncmgr.KindFlushAck],
	}
	for i := 0; i < w.Procs; i++ {
		ls := sys.Proc(i).LockStats()
		out.AcquireWait += ls.AcquireWait
		out.ReleaseWait += ls.ReleaseWait
	}
	return out, nil
}

// RunPropagationSweep runs all three modes on the same workload.
func RunPropagationSweep(w PropagationWorkload, latency network.LatencyModel, seed int64) ([]PropagationResult, error) {
	modes := []syncmgr.PropagationMode{syncmgr.Eager, syncmgr.Lazy, syncmgr.DemandDriven}
	out := make([]PropagationResult, 0, len(modes))
	for _, mode := range modes {
		r, err := RunPropagation(mode, w, latency, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunPropagationBatchSweep runs one mode across outbox batch sizes on the
// same workload: size 0 is the unbatched baseline, each positive size sets
// the outbox's MaxUpdates threshold. The rows quantify how many update
// frames the outbox saves as the batch window widens.
func RunPropagationBatchSweep(mode syncmgr.PropagationMode, w PropagationWorkload, sizes []int, latency network.LatencyModel, seed int64) ([]PropagationResult, error) {
	out := make([]PropagationResult, 0, len(sizes))
	for _, size := range sizes {
		ww := w
		ww.Batch = batchConfigForSize(size)
		r, err := RunPropagation(mode, ww, latency, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// batchConfigForSize maps a sweep knob to an outbox config: 0 disables
// batching, a positive size becomes the MaxUpdates threshold.
func batchConfigForSize(size int) dsm.BatchConfig {
	if size <= 0 {
		return dsm.BatchConfig{}
	}
	return dsm.BatchConfig{Enabled: true, MaxUpdates: size}
}

// GaussSeidelResult is experiment E7: convergence of asynchronous relaxation
// under plain PRAM.
type GaussSeidelResult struct {
	N, Procs int
	Rounds   int
	Error    float64
	Time     time.Duration
}

// String renders one row.
func (r GaussSeidelResult) String() string {
	return fmt.Sprintf("n=%d procs=%d rounds=%-4d error=%-12.3e time=%v",
		r.N, r.Procs, r.Rounds, r.Error, r.Time.Round(time.Microsecond))
}

// RunGaussSeidel measures the distance to the direct solution after the
// given number of asynchronous PRAM sweeps.
func RunGaussSeidel(n, procs, rounds int, seed int64) (GaussSeidelResult, error) {
	ls := apps.GenDiagDominant(n, seed)
	direct, err := ls.SolveDirect()
	if err != nil {
		return GaussSeidelResult{}, fmt.Errorf("gauss-seidel: %w", err)
	}
	sys, err := core.NewSystem(core.Config{Procs: procs})
	if err != nil {
		return GaussSeidelResult{}, fmt.Errorf("gauss-seidel: %w", err)
	}
	defer sys.Close()
	var final []float64
	start := time.Now()
	sys.Run(func(p *core.Proc) {
		r := apps.SolveAsyncPRAM(p, ls, rounds)
		if p.ID() == 0 {
			final = r.X
		}
	})
	elapsed := time.Since(start)
	return GaussSeidelResult{
		N: n, Procs: procs, Rounds: rounds,
		Error: apps.MaxAbsDiff(final, direct),
		Time:  elapsed,
	}, nil
}

// RunGaussSeidelSlow is RunGaussSeidel at the bottom of the lattice: the
// estimate cells are labeled Slow and the sweeps use slow reads
// (apps.SolveAsyncSlow). The single-writer structure of the cells makes
// per-location FIFO sufficient for Chazan–Miranker convergence, so the
// result should match the PRAM run's quality while the writes travel
// timestamp-free.
func RunGaussSeidelSlow(n, procs, rounds int, seed int64) (GaussSeidelResult, error) {
	ls := apps.GenDiagDominant(n, seed)
	direct, err := ls.SolveDirect()
	if err != nil {
		return GaussSeidelResult{}, fmt.Errorf("gauss-seidel slow: %w", err)
	}
	sys, err := core.NewSystem(core.Config{Procs: procs, Labels: apps.SlowEstimateLabels(n)})
	if err != nil {
		return GaussSeidelResult{}, fmt.Errorf("gauss-seidel slow: %w", err)
	}
	defer sys.Close()
	var final []float64
	start := time.Now()
	sys.Run(func(p *core.Proc) {
		r := apps.SolveAsyncSlow(p, ls, rounds)
		if p.ID() == 0 {
			final = r.X
		}
	})
	elapsed := time.Since(start)
	return GaussSeidelResult{
		N: n, Procs: procs, Rounds: rounds,
		Error: apps.MaxAbsDiff(final, direct),
		Time:  elapsed,
	}, nil
}

// LatencyResult is experiment E8: mean per-operation latency on each memory.
type LatencyResult struct {
	// Write, PRAMRead, CausalRead are mixed-consistency op latencies.
	Write, PRAMRead, CausalRead time.Duration
	// SCWrite, SCRead are central-server sequentially consistent
	// latencies on a fabric with the same latency model.
	SCWrite, SCRead time.Duration
}

// String renders the latency spectrum.
func (r LatencyResult) String() string {
	return fmt.Sprintf("mixed: write=%v pram-read=%v causal-read=%v | SC: write=%v read=%v",
		r.Write, r.PRAMRead, r.CausalRead, r.SCWrite, r.SCRead)
}

// RunLatencyMicro measures mean operation latencies on the mixed memory and
// the sequentially consistent baseline under the same latency model: the
// paper's core motivation that weak consistency buys low access latency.
// Weak writes and reads are local operations, so over tcp their latency must
// stay flat even though the broadcast behind them crosses real sockets.
func RunLatencyMicro(ops int, sub Substrate) (LatencyResult, error) {
	var out LatencyResult
	{
		sys, err := sub.NewSystem(core.Config{Procs: 2})
		if err != nil {
			return out, fmt.Errorf("latency micro: %w", err)
		}
		p := sys.Proc(0)
		start := time.Now()
		for i := 0; i < ops; i++ {
			p.Write("w", int64(i+1))
		}
		out.Write = time.Since(start) / time.Duration(ops)
		start = time.Now()
		for i := 0; i < ops; i++ {
			p.ReadPRAM("w") //mixedvet:ignore — latency micro: mixed-label reads of one location are the measurement
		}
		out.PRAMRead = time.Since(start) / time.Duration(ops)
		start = time.Now()
		for i := 0; i < ops; i++ {
			p.ReadCausal("w") //mixedvet:ignore
		}
		out.CausalRead = time.Since(start) / time.Duration(ops)
		sys.Close()
	}
	// Single-backend on purpose: the central-server SC baseline is
	// simulation-only (its round trip is the modeled latency, which a kernel
	// loopback does not reproduce), so over tcp the SC columns stay 0 and only
	// the mixed side of the spectrum is reported.
	if !sub.TCP {
		sys, err := seqmem.NewSystem(seqmem.Config{Procs: 2, Latency: sub.Latency})
		if err != nil {
			return out, fmt.Errorf("latency micro: %w", err)
		}
		p := sys.Proc(0)
		start := time.Now()
		for i := 0; i < ops; i++ {
			p.Write("w", int64(i+1))
		}
		out.SCWrite = time.Since(start) / time.Duration(ops)
		start = time.Now()
		for i := 0; i < ops; i++ {
			p.ReadPRAM("w")
		}
		out.SCRead = time.Since(start) / time.Duration(ops)
		sys.Close()
	}
	return out, nil
}
