package bench

import (
	"testing"
	"time"

	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
)

// The bench runners are exercised here with the zero latency model so the
// whole suite stays fast; the shape assertions (who wins, what is zero) are
// the paper's claims and must hold at any latency scale.

func TestRunFigure1(t *testing.T) {
	r, err := RunFigure1()
	if err != nil {
		t.Fatalf("RunFigure1: %v", err)
	}
	if !r.PropertiesHold {
		t.Fatal("Section 3.1.1 lock-order properties do not hold")
	}
	if r.Ops != 15 {
		t.Errorf("ops = %d, want 15", r.Ops)
	}
	if r.LockOrderPairs == 0 || r.BarrierPairs == 0 || r.CausalityPairs == 0 {
		t.Errorf("degenerate orders: %+v", r)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestRunSolverComparison(t *testing.T) {
	r, err := RunSolverComparison(10, 3, network.LatencyModel{}, 1)
	if err != nil {
		t.Fatalf("RunSolverComparison: %v", err)
	}
	if r.BarrierResidual > 1e-7 || r.HandshakeResidual > 1e-7 {
		t.Fatalf("solvers did not converge: %+v", r)
	}
	if r.BarrierIters == 0 || r.HandshakeIters == 0 {
		t.Fatalf("no iterations recorded: %+v", r)
	}
	// The handshake protocol exchanges at least as many messages as the
	// barrier protocol on the same problem: four awaited writes per worker
	// per iteration versus one arrive/release pair per process.
	if r.HandshakeMsgs < r.BarrierMsgs/2 {
		t.Errorf("unexpected message balance: %+v", r)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestRunPRAMInsufficiency(t *testing.T) {
	r, err := RunPRAMInsufficiency()
	if err != nil {
		t.Fatalf("RunPRAMInsufficiency: %v", err)
	}
	if !r.Demonstrated {
		t.Fatalf("insufficiency not demonstrated: %+v", r)
	}
}

func TestRunEMField(t *testing.T) {
	r, err := RunEMField(32, 10, 4, network.LatencyModel{}, 2)
	if err != nil {
		t.Fatalf("RunEMField: %v", err)
	}
	if r.MaxError != 0 {
		t.Fatalf("parallel EM field differs from sequential: %+v", r)
	}
	if r.UpdateMsgs == 0 {
		t.Error("no boundary updates exchanged")
	}
}

// TestRunCholeskyComparison pins experiment E5's message counts exactly. A
// write-locked critical section's writes leave as one batch per destination
// (dsm.Node.Hold), so the lock variant sends fewer messages than the counter
// variant, whose adds are each a broadcast of their own; the counter variant
// is still the faster one (EXPERIMENTS.md E5 says why), which the timings
// cannot pin.
func TestRunCholeskyComparison(t *testing.T) {
	r, err := RunCholeskyComparison(12, 3, 0.3, network.LatencyModel{}, 3)
	if err != nil {
		t.Fatalf("RunCholeskyComparison: %v", err)
	}
	if r.LockError > 1e-8 || r.CounterError > 1e-6 {
		t.Fatalf("factorization errors too large: %+v", r)
	}
	if r.LockAcquires != 31 || r.LockMsgs != 326 || r.CounterMsgs != 398 {
		t.Errorf("locks: %d acquires, %d msgs; counters: %d msgs; want 31, 326 and 398: %+v",
			r.LockAcquires, r.LockMsgs, r.CounterMsgs, r)
	}
}

func TestRunPropagationSweep(t *testing.T) {
	w := PropagationWorkload{Procs: 3, Handoffs: 5, WritesPerCS: 4, ReadBack: false}
	rs, err := RunPropagationSweep(w, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationSweep: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d modes", len(rs))
	}
	byMode := map[syncmgr.PropagationMode]PropagationResult{}
	for _, r := range rs {
		byMode[r.Mode] = r
	}
	// Eager is the only mode with flush traffic; lazy and demand-driven
	// send none.
	if byMode[syncmgr.Eager].FlushMsgs == 0 {
		t.Error("eager mode sent no flush messages")
	}
	if byMode[syncmgr.Lazy].FlushMsgs != 0 || byMode[syncmgr.DemandDriven].FlushMsgs != 0 {
		t.Error("non-eager modes sent flush messages")
	}
	// Eager therefore sends the most messages.
	if byMode[syncmgr.Eager].Msgs <= byMode[syncmgr.Lazy].Msgs {
		t.Errorf("eager should out-message lazy: %+v vs %+v",
			byMode[syncmgr.Eager], byMode[syncmgr.Lazy])
	}
}

// TestHoldsBatchE6CriticalSections pins what a hold does to the E6
// lock-handoff workload: a critical section's writes leave as one frame per
// destination whether or not the outbox batches every write, so in every
// propagation mode the unbatched run sends exactly the batched run's messages
// and bytes, and exactly one update frame per critical section per peer.
// Demand-driven grants carry write-set stamps whose sequence numbers depend on
// the handoff order, so its bytes are left out, as counts.golden leaves them.
func TestHoldsBatchE6CriticalSections(t *testing.T) {
	w := PropagationWorkload{Procs: 4, Handoffs: 10, WritesPerCS: 8, ReadBack: false}
	wb := w
	wb.Batch = dsm.BatchConfig{Enabled: true, MaxUpdates: 32, Linger: time.Hour}

	unbatched, err := RunPropagationSweep(w, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationSweep (unbatched): %v", err)
	}
	batched, err := RunPropagationSweep(wb, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationSweep (batched): %v", err)
	}
	frames := uint64(w.Procs * w.Handoffs * (w.Procs - 1))
	for i, u := range unbatched {
		b := batched[i]
		if u.UpdateFrames != frames || b.UpdateFrames != frames {
			t.Errorf("%v: %d update frames unbatched, %d batched, want %d: one per critical section per peer",
				u.Mode, u.UpdateFrames, b.UpdateFrames, frames)
		}
		if u.Msgs != b.Msgs || u.Mode != syncmgr.DemandDriven && u.Bytes != b.Bytes {
			t.Errorf("%v: unbatched %d msgs / %d B, batched %d / %d, want equal",
				u.Mode, u.Msgs, u.Bytes, b.Msgs, b.Bytes)
		}
	}
}

// TestBatchSweepFramesExact pins the sweep helper's update frames: a batch
// window at least the critical section's width (and no window at all, where
// the hold batches) ships one frame per critical section per peer; a window of
// one flushes every write at its threshold.
func TestBatchSweepFramesExact(t *testing.T) {
	w := PropagationWorkload{Procs: 3, Handoffs: 5, WritesPerCS: 4, ReadBack: false}
	sizes := []int{0, 1, 4, 16}
	rows, err := RunPropagationBatchSweep(syncmgr.Lazy, w, sizes, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationBatchSweep: %v", err)
	}
	if len(rows) != len(sizes) {
		t.Fatalf("got %d rows", len(rows))
	}
	perCS := uint64(w.Procs * w.Handoffs * (w.Procs - 1))
	want := []uint64{perCS, perCS * uint64(w.WritesPerCS), perCS, perCS}
	for i, r := range rows {
		if r.Batch != sizes[i] || r.UpdateFrames != want[i] {
			t.Errorf("row %d: batch=%d, %d update frames; want batch=%d, %d", i, r.Batch, r.UpdateFrames, sizes[i], want[i])
		}
	}
}

func TestRunGaussSeidel(t *testing.T) {
	r, err := RunGaussSeidel(12, 3, 80, 5)
	if err != nil {
		t.Fatalf("RunGaussSeidel: %v", err)
	}
	if r.Error > 1e-6 {
		t.Fatalf("asynchronous relaxation did not converge: %+v", r)
	}
}

func TestRunGaussSeidelErrorShrinksWithRounds(t *testing.T) {
	short, err := RunGaussSeidel(12, 3, 4, 6)
	if err != nil {
		t.Fatalf("short: %v", err)
	}
	long, err := RunGaussSeidel(12, 3, 100, 6)
	if err != nil {
		t.Fatalf("long: %v", err)
	}
	if long.Error >= short.Error && short.Error > 1e-9 {
		t.Fatalf("error did not shrink: short=%v long=%v", short.Error, long.Error)
	}
}

func TestRunCorollaries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	r, err := RunCorollaries(5)
	if err != nil {
		t.Fatalf("RunCorollaries: %v", err)
	}
	if r.EntryPassed != r.Seeds || r.PhasedPassed != r.Seeds {
		t.Fatalf("corollary property violated: %+v", r)
	}
}

func TestRunPipelineComparison(t *testing.T) {
	r, err := RunPipelineComparison(15, 3, network.LatencyModel{}, 1)
	if err != nil {
		t.Fatalf("RunPipelineComparison: %v", err)
	}
	if !r.OutputsMatch {
		t.Fatal("pipeline outputs do not match the reference")
	}
	// The lock-based variant pays manager round trips per item (polling
	// plus grant traffic); the await variant needs none.
	if r.LockMsgs <= r.AwaitMsgs {
		t.Fatalf("lock pipeline (%d msgs) should out-message await pipeline (%d msgs)",
			r.LockMsgs, r.AwaitMsgs)
	}
}

func TestRunEM2DField(t *testing.T) {
	r, err := RunEM2DField(16, 6, 3, network.LatencyModel{}, 2)
	if err != nil {
		t.Fatalf("RunEM2DField: %v", err)
	}
	if !r.Exact {
		t.Fatal("2-D parallel fields differ from sequential")
	}
	if r.UpdateMsgs == 0 {
		t.Error("no boundary rows exchanged")
	}
}

func TestRunRedBlack(t *testing.T) {
	r, err := RunRedBlack(14, 3, network.LatencyModel{}, 2)
	if err != nil {
		t.Fatalf("RunRedBlack: %v", err)
	}
	if !r.BothMatchDirect {
		t.Fatal("a solver diverged from the direct solution")
	}
	if r.RBSweeps > r.JacobiSweeps {
		t.Fatalf("red-black (%d sweeps) should not exceed Jacobi (%d)", r.RBSweeps, r.JacobiSweeps)
	}
}
