package bench

import (
	"fmt"
	"strconv"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
)

// TimestampAblation is ablation A1: the Section 6 remark that "the extra
// overhead of sending a timestamp in each message and performing the updates
// in the timestamp order can be avoided if ... all read operations of the
// program following a write operation are PRAM operations." The Figure 2
// solver is exactly such a program (PRAM-consistent), so running it with
// timestamps elided must produce the same answer with smaller updates.
type TimestampAblation struct {
	N, Procs int
	// Full is the run with vector timestamps on every update.
	FullTime  time.Duration
	FullBytes uint64
	// Elided is the PRAM-only run.
	ElidedTime  time.Duration
	ElidedBytes uint64
	// ResidualsMatch reports both runs converged below tolerance.
	ResidualsMatch bool
}

// String renders the ablation row.
func (r TimestampAblation) String() string {
	saved := 0.0
	if r.FullBytes > 0 {
		saved = 100 * (1 - float64(r.ElidedBytes)/float64(r.FullBytes))
	}
	return fmt.Sprintf(
		"n=%d procs=%d | with timestamps: %v, %d bytes | elided: %v, %d bytes | %.1f%% bytes saved, results match=%v",
		r.N, r.Procs,
		r.FullTime.Round(time.Microsecond), r.FullBytes,
		r.ElidedTime.Round(time.Microsecond), r.ElidedBytes,
		saved, r.ResidualsMatch)
}

// RunTimestampAblation runs the Figure 2 solver with and without vector
// timestamps on updates.
func RunTimestampAblation(n, procs int, latency network.LatencyModel, seed int64) (TimestampAblation, error) {
	ls := apps.GenDiagDominant(n, seed)
	out := TimestampAblation{N: n, Procs: procs}

	run := func(pramOnly bool) (time.Duration, uint64, float64, error) {
		sys, err := core.NewSystem(core.Config{
			Procs: procs, Latency: latency, Seed: seed, PRAMOnly: pramOnly,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		defer sys.Close()
		var res apps.SolveResult
		start := time.Now()
		sys.Run(func(p *core.Proc) {
			r := apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-8})
			if p.ID() == 0 {
				res = r
			}
		})
		return time.Since(start), sys.NetStats().BytesSent, ls.Residual(res.X), nil
	}

	fullTime, fullBytes, fullResid, err := run(false)
	if err != nil {
		return out, fmt.Errorf("timestamp ablation (full): %w", err)
	}
	elidedTime, elidedBytes, elidedResid, err := run(true)
	if err != nil {
		return out, fmt.Errorf("timestamp ablation (elided): %w", err)
	}
	out.FullTime, out.FullBytes = fullTime, fullBytes
	out.ElidedTime, out.ElidedBytes = elidedTime, elidedBytes
	out.ResidualsMatch = fullResid < 1e-7 && elidedResid < 1e-7
	return out, nil
}

// PropagationCost is one row of ablation A2: where a propagation mode pays
// for critical-section visibility on an asymmetric network. The scenario is
// a single lock handoff from a writer to an acquirer whose direct channel
// from the writer is many times slower than the control channels through the
// manager — a congested or remote data path. Each mode charges the cost of
// the writer's buffered updates at a different point:
//
//   - eager pays at release: the unlock blocks until every process (over
//     the slow link too) acknowledges the flush;
//   - lazy pays at acquire: the grant arrives fast, but the acquirer waits
//     for every update counted in the release vector;
//   - demand-driven pays at the first read of an invalidated location, and
//     nothing at all if the acquirer never reads the data — the Section 6
//     remark that eager and lazy "do not take into account whether data is
//     actually accessed subsequently."
type PropagationCost struct {
	Mode syncmgr.PropagationMode
	// ReleaseWait is how long the writer's WUnlock took.
	ReleaseWait time.Duration
	// AcquireWait is how long the acquirer's WLock took.
	AcquireWait time.Duration
	// ReadWait is how long the acquirer's first causal read of a written
	// location took after the acquire.
	ReadWait time.Duration
}

// String renders one row.
func (r PropagationCost) String() string {
	return fmt.Sprintf("%-13s release-wait=%-12v acquire-wait=%-12v first-read-wait=%v",
		r.Mode, r.ReleaseWait.Round(time.Microsecond),
		r.AcquireWait.Round(time.Microsecond), r.ReadWait.Round(time.Microsecond))
}

// RunPropagationCost runs the asymmetric handoff for one mode. noiseWrites
// is the number of updates the writer issues inside the critical section;
// slowFactor scales the writer->acquirer channel latency.
func RunPropagationCost(mode syncmgr.PropagationMode, noiseWrites int, slowFactor float64, latency network.LatencyModel) (PropagationCost, error) {
	// Process 0 hosts the managers and never works; 1 writes; 2 acquires.
	sys, err := core.NewSystem(core.Config{
		Procs: 3, Latency: latency, Propagation: mode,
	})
	if err != nil {
		return PropagationCost{}, fmt.Errorf("propagation cost %v: %w", mode, err)
	}
	defer sys.Close()
	if err := sys.Fabric().SetDelayFactor(1, 2, slowFactor); err != nil {
		return PropagationCost{}, err
	}

	writer, acq := sys.Proc(1), sys.Proc(2)
	out := PropagationCost{Mode: mode}

	writer.WLock("l")
	for i := 0; i < noiseWrites; i++ {
		writer.Write("noise"+strconv.Itoa(i), int64(i+1))
	}
	writer.Write("real", 42)
	start := time.Now()
	writer.WUnlock("l")
	out.ReleaseWait = time.Since(start)

	start = time.Now()
	acq.WLock("l")
	out.AcquireWait = time.Since(start)

	start = time.Now()
	if v := acq.ReadCausal("real"); v != 42 {
		return out, fmt.Errorf("propagation cost %v: read %d, want 42", mode, v)
	}
	out.ReadWait = time.Since(start)
	acq.WUnlock("l")
	return out, nil
}

// RunPropagationCostSweep runs the asymmetric handoff for all three modes.
func RunPropagationCostSweep(noiseWrites int, slowFactor float64, latency network.LatencyModel) ([]PropagationCost, error) {
	modes := []syncmgr.PropagationMode{syncmgr.Eager, syncmgr.Lazy, syncmgr.DemandDriven}
	out := make([]PropagationCost, 0, len(modes))
	for _, mode := range modes {
		r, err := RunPropagationCost(mode, noiseWrites, slowFactor, latency)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// PlacementAblation is ablation A3: Section 6's closing remark on memory
// operations — "the overhead of broadcasting messages for each update and of
// duplicating memory at each node may be avoided by making optimizations
// based on the patterns of accesses to shared variables." The EM-field
// program's boundary variables each have exactly one reader, so scoped
// placement sends each update to one process instead of all.
type PlacementAblation struct {
	Size, Steps, Procs int
	// Broadcast is the run with full update broadcast (PRAM reads).
	BroadcastMsgs uint64
	BroadcastTime time.Duration
	// Scoped is the run with per-location placement and PRAMOnly: every
	// update timestamp-elided and sent to its single registered reader.
	ScopedMsgs uint64
	ScopedTime time.Duration
	// CausalScoped is the run with causal boundary reads and every reader
	// causal-registered: each update ships dependency-stamped to its single
	// reader instead of broadcast — scoped placement with a live causal
	// view.
	CausalScopedMsgs uint64
	CausalScopedTime time.Duration
	// ResultsMatch reports all runs matched the sequential reference.
	ResultsMatch bool
}

// String renders the ablation row.
func (r PlacementAblation) String() string {
	saved := func(msgs uint64) float64 {
		if r.BroadcastMsgs == 0 {
			return 0
		}
		return 100 * (1 - float64(msgs)/float64(r.BroadcastMsgs))
	}
	return fmt.Sprintf(
		"grid=%d steps=%d procs=%d | broadcast: %d msgs, %v | scoped: %d msgs, %v (%.1f%% saved) | causal-scoped: %d msgs, %v (%.1f%% saved) | results match=%v",
		r.Size, r.Steps, r.Procs,
		r.BroadcastMsgs, r.BroadcastTime.Round(time.Microsecond),
		r.ScopedMsgs, r.ScopedTime.Round(time.Microsecond), saved(r.ScopedMsgs),
		r.CausalScopedMsgs, r.CausalScopedTime.Round(time.Microsecond), saved(r.CausalScopedMsgs),
		r.ResultsMatch)
}

// placementMode selects one A3 configuration.
type placementMode int

const (
	placementBroadcast placementMode = iota
	placementScopedPRAM
	placementScopedCausal
)

// runPlacementCase runs the EM-field computation on one system configuration
// and reports update-message count, wall time, and bit-exactness against the
// sequential reference.
func runPlacementCase(mode placementMode, prob *apps.EMProblem, refE []float64, procs int, sub Substrate, seed int64) (uint64, time.Duration, bool, error) {
	cfg := core.Config{Procs: procs, Seed: seed}
	opts := apps.SolveOptions{}
	switch mode {
	case placementScopedPRAM:
		cfg.PRAMOnly = true
		cfg.Placement = apps.EMFieldScope(prob.Size, procs, false)
	case placementScopedCausal:
		cfg.Placement = apps.EMFieldScope(prob.Size, procs, true)
		opts.ReadLabel = history.LabelCausal
	}
	sys, err := sub.NewSystem(cfg)
	if err != nil {
		return 0, 0, false, err
	}
	defer sys.Close()
	results := make([]apps.EMResult, procs)
	start := time.Now()
	sys.Run(func(p *core.Proc) {
		results[p.ID()] = apps.SolveEMField(p, prob, opts)
	})
	elapsed := time.Since(start)
	exact := true
	for _, r := range results {
		for i := r.Lo; i < r.Hi; i++ {
			if r.E[i-r.Lo] != refE[i] {
				exact = false
			}
		}
	}
	return sys.NetStats().PerKind[dsmUpdateKind], elapsed, exact, nil
}

// RunPlacementAblation runs the EM-field computation without placement, with
// PRAM-only placement, and with causal-scoped placement. Over tcp the message
// counts are actual frames sent rather than simulated deliveries, and the
// scoped rows must win by the same point-to-point-versus-broadcast margin.
func RunPlacementAblation(size, steps, procs int, sub Substrate, seed int64) (PlacementAblation, error) {
	prob := apps.GenEMProblem(size, steps, seed)
	refE, _ := prob.SolveSequential()
	out := PlacementAblation{Size: size, Steps: steps, Procs: procs}

	bMsgs, bTime, bOK, err := runPlacementCase(placementBroadcast, prob, refE, procs, sub, seed)
	if err != nil {
		return out, fmt.Errorf("placement ablation (broadcast): %w", err)
	}
	sMsgs, sTime, sOK, err := runPlacementCase(placementScopedPRAM, prob, refE, procs, sub, seed)
	if err != nil {
		return out, fmt.Errorf("placement ablation (scoped): %w", err)
	}
	cMsgs, cTime, cOK, err := runPlacementCase(placementScopedCausal, prob, refE, procs, sub, seed)
	if err != nil {
		return out, fmt.Errorf("placement ablation (causal-scoped): %w", err)
	}
	out.BroadcastMsgs, out.BroadcastTime = bMsgs, bTime
	out.ScopedMsgs, out.ScopedTime = sMsgs, sTime
	out.CausalScopedMsgs, out.CausalScopedTime = cMsgs, cTime
	out.ResultsMatch = bOK && sOK && cOK
	return out, nil
}

// dsmUpdateKind mirrors dsm.KindUpdate without importing the package here.
const dsmUpdateKind = "update"
