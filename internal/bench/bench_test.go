package bench

import (
	"testing"

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

func TestRunCholeskyComparison(t *testing.T) {
	r, err := RunCholeskyComparison(12, 3, 0.3, network.LatencyModel{}, 3)
	if err != nil {
		t.Fatalf("RunCholeskyComparison: %v", err)
	}
	if r.LockError > 1e-8 || r.CounterError > 1e-6 {
		t.Fatalf("factorization errors too large: %+v", r)
	}
	if r.LockAcquires == 0 {
		t.Error("lock variant acquired no locks")
	}
	// The counter variant eliminates all lock traffic, so it sends fewer
	// protocol messages overall on the same problem.
	if r.CounterMsgs >= r.LockMsgs {
		t.Errorf("counter variant did not reduce messages: %+v", r)
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

// TestBatchingHalvesE6Messages is the acceptance gate for the update outbox:
// under the E6 lock-handoff workload, batching at the critical-section width
// must cut total fabric messages (and update frames by close to WritesPerCS)
// at least in half compared to the unbatched baseline, in every propagation
// mode.
func TestBatchingHalvesE6Messages(t *testing.T) {
	w := PropagationWorkload{Procs: 4, Handoffs: 10, WritesPerCS: 8, ReadBack: false}
	wb := w
	wb.Batch = dsm.BatchConfig{Enabled: true, MaxUpdates: 32}

	before, err := RunPropagationSweep(w, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationSweep (unbatched): %v", err)
	}
	after, err := RunPropagationSweep(wb, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationSweep (batched): %v", err)
	}
	byMode := map[syncmgr.PropagationMode]PropagationResult{}
	for _, r := range after {
		byMode[r.Mode] = r
	}
	for _, b := range before {
		a := byMode[b.Mode]
		if a.Msgs*2 > b.Msgs {
			t.Errorf("%v: batching reduced messages only %d -> %d, want >= 2x",
				b.Mode, b.Msgs, a.Msgs)
		}
		// With 8 writes per critical section and a 32-wide outbox, every
		// critical section's updates should leave as one frame per
		// destination: an ~8x collapse, so comfortably >= 4x.
		if a.UpdateFrames*4 > b.UpdateFrames {
			t.Errorf("%v: update frames reduced only %d -> %d, want >= 4x",
				b.Mode, b.UpdateFrames, a.UpdateFrames)
		}
	}
}

// TestBatchSweepMonotoneFrames checks the sweep helper: update frames shrink
// as the batch window widens, and size 0 reproduces the unbatched baseline.
func TestBatchSweepMonotoneFrames(t *testing.T) {
	w := PropagationWorkload{Procs: 3, Handoffs: 5, WritesPerCS: 4, ReadBack: false}
	rows, err := RunPropagationBatchSweep(
		syncmgr.Lazy, w, []int{0, 1, 4, 16}, network.LatencyModel{}, 4)
	if err != nil {
		t.Fatalf("RunPropagationBatchSweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Batch != 0 || rows[1].Batch != 1 || rows[3].Batch != 16 {
		t.Fatalf("batch labels wrong: %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].UpdateFrames > rows[i-1].UpdateFrames {
			t.Errorf("update frames grew from batch=%d (%d) to batch=%d (%d)",
				rows[i-1].Batch, rows[i-1].UpdateFrames, rows[i].Batch, rows[i].UpdateFrames)
		}
	}
	// All workload writes still happen regardless of batch size: the update
	// frames with batch=1 equal the baseline (every batch is a singleton).
	if rows[1].UpdateFrames != rows[0].UpdateFrames {
		t.Errorf("batch=1 sent %d update frames, baseline %d — should match",
			rows[1].UpdateFrames, rows[0].UpdateFrames)
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

func TestRunLatencyMicro(t *testing.T) {
	lat := network.LatencyModel{Fixed: 300 * 1000} // 300µs in ns
	r, err := RunLatencyMicro(20, Substrate{Latency: lat})
	if err != nil {
		t.Fatalf("RunLatencyMicro: %v", err)
	}
	// The paper's motivation: weak operations are local, SC operations pay
	// a round trip. Require at least an order of magnitude separation.
	if r.SCRead < 10*r.PRAMRead || r.SCWrite < 10*r.Write {
		t.Fatalf("no latency separation: %+v", r)
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
	if !r.Passed() {
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
