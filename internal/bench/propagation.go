package bench

import (
	"fmt"
	"strconv"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
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

// batchConfigForSize maps a sweep knob to an outbox config: 0 batches only
// what a hold does, a positive size batches every write and becomes the
// MaxUpdates threshold. Every critical section ends in a flush, so the
// linger flusher would only split batches as the schedule falls: it is
// pushed out of the run.
func batchConfigForSize(size int) dsm.BatchConfig {
	if size <= 0 {
		return dsm.BatchConfig{}
	}
	return dsm.BatchConfig{Enabled: true, MaxUpdates: size, Linger: time.Hour}
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
