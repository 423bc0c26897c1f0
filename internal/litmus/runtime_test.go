package litmus

import (
	"testing"

	"mixedmem/internal/check"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
)

// The litmus suite pins the checker's verdicts; these tests pin the
// runtime's observable behavior on the store-buffering shape: the mixed
// memory can exhibit the weak outcome (both processes read 0). That SC-labeled
// locations never can is TestRuntimeSBMatrixSim's SC half.

// runSBMixed runs the SB shape once on the mixed memory with both
// cross-channels held during the reads, forcing the weak outcome.
func runSBMixed(t *testing.T) (r0, r1 int64) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Procs: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	// Hold both directions: each process's write cannot reach the other
	// before the other's read — a legal (if extreme) delivery schedule.
	_ = sys.Fabric().Hold(0, 1)
	_ = sys.Fabric().Hold(1, 0)
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("x", 1)
			r0 = p.ReadPRAM("y")
		} else {
			p.Write("y", 1)
			r1 = p.ReadPRAM("x")
		}
	})
	_ = sys.Fabric().Release(0, 1)
	_ = sys.Fabric().Release(1, 0)
	return r0, r1
}

func TestMixedRuntimeExhibitsStoreBuffering(t *testing.T) {
	r0, r1 := runSBMixed(t)
	if r0 != 0 || r1 != 0 {
		t.Fatalf("held channels must force the weak outcome: r0=%d r1=%d", r0, r1)
	}
}

func TestMixedRuntimeSBHistoryIsMixedConsistent(t *testing.T) {
	// The weak outcome is PRAM-legal: record it and let the checker agree.
	sys, err := core.NewSystem(core.Config{Procs: 2, Record: true})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	_ = sys.Fabric().Hold(0, 1)
	_ = sys.Fabric().Hold(1, 0)
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("x", 1)
			p.ReadPRAM("y")
		} else {
			p.Write("y", 1)
			p.ReadPRAM("x")
		}
	})
	_ = sys.Fabric().Release(0, 1)
	_ = sys.Fabric().Release(1, 0)

	h := sys.History()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("weak SB outcome flagged as inconsistent: %v", v)
	}
	// And it must really be the weak outcome: both reads returned 0.
	zeros := 0
	for _, op := range h.Ops {
		if op.Kind == history.Read && op.Value == 0 {
			zeros++
		}
	}
	if zeros != 2 {
		t.Fatalf("expected both reads 0, history: %v", h.Ops)
	}
	// The same history must fail the SC check — the runtime exhibited a
	// behavior only the weak models admit.
	ok, _, err := check.SequentiallyConsistent(a)
	if err != nil {
		t.Fatalf("SC search: %v", err)
	}
	if ok {
		t.Fatal("weak SB outcome should not be sequentially consistent")
	}
}

// TestMixedRuntimeSBBatchedStillMixedConsistent repeats the recorded SB run
// with the update outbox enabled: batching delays and coalesces wire frames
// but must not change the verdict — the weak outcome stays mixed-consistent
// and stays non-SC.
func TestMixedRuntimeSBBatchedStillMixedConsistent(t *testing.T) {
	sys, err := core.NewSystem(core.Config{
		Procs: 2, Record: true,
		Batch: dsm.BatchConfig{Enabled: true, MaxUpdates: 8},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	_ = sys.Fabric().Hold(0, 1)
	_ = sys.Fabric().Hold(1, 0)
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("x", 1)
			p.ReadPRAM("y")
		} else {
			p.Write("y", 1)
			p.ReadPRAM("x")
		}
	})
	_ = sys.Fabric().Release(0, 1)
	_ = sys.Fabric().Release(1, 0)

	h := sys.History()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("batched SB outcome flagged as inconsistent: %v", v)
	}
	zeros := 0
	for _, op := range h.Ops {
		if op.Kind == history.Read && op.Value == 0 {
			zeros++
		}
	}
	if zeros != 2 {
		t.Fatalf("expected both reads 0 under held channels, history: %v", h.Ops)
	}
	ok, _, err := check.SequentiallyConsistent(a)
	if err != nil {
		t.Fatalf("SC search: %v", err)
	}
	if ok {
		t.Fatal("weak SB outcome should not be sequentially consistent")
	}
}
