package litmus

import (
	"testing"

	"mixedmem/internal/bench"
	"mixedmem/internal/check"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
)

// These tests re-run the litmus shapes (SB, MP, a three-process causal
// chain) under causal-scoped placement: every location registered with
// exactly its readers, all causal. The verdicts must match full broadcast —
// scoping changes who receives an update, never what a read may observe.

// sbScope registers each SB location with its single cross-process reader.
func sbScope() *dsm.ScopeMap {
	return &dsm.ScopeMap{
		Readers:       map[string][]int{"x": {1}, "y": {0}},
		CausalReaders: map[string][]int{"x": {1}, "y": {0}},
	}
}

// mpScope registers message-passing's data and flag with the consumer.
func mpScope() *dsm.ScopeMap {
	return &dsm.ScopeMap{
		Readers:       map[string][]int{"data": {1}, "flag": {1}},
		CausalReaders: map[string][]int{"data": {1}, "flag": {1}},
	}
}

// chainScope registers the three-process causal chain: a is read by 1 and 2,
// b only by 2. Process 2's read of a through b's await is the transitive
// dependency scoped delivery must preserve.
func chainScope() *dsm.ScopeMap {
	return &dsm.ScopeMap{
		Readers:       map[string][]int{"a": {1, 2}, "b": {2}},
		CausalReaders: map[string][]int{"a": {1, 2}, "b": {2}},
	}
}

// analyzeMixed records the run and returns the mixed-consistency violation
// count plus the recorded history.
func analyzeMixed(t *testing.T, sys *core.System) (int, *history.History) {
	t.Helper()
	h := sys.History()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return len(check.Mixed(a)), h
}

// TestScopedLitmusSBWeakOutcomeUnchanged forces the store-buffering weak
// outcome under causal-scoped placement and checks the verdict pair is the
// same as broadcast: mixed-consistent, not sequentially consistent.
func TestScopedLitmusSBWeakOutcomeUnchanged(t *testing.T) {
	for _, scoped := range []bool{false, true} {
		cfg := core.Config{Procs: 2, Record: true}
		if scoped {
			cfg.Placement = sbScope()
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem(scoped=%v): %v", scoped, err)
		}
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

		violations, h := analyzeMixed(t, sys)
		if violations != 0 {
			t.Fatalf("scoped=%v: weak SB outcome flagged as inconsistent", scoped)
		}
		zeros := 0
		for _, op := range h.Ops {
			if op.Kind == history.Read && op.Value == 0 {
				zeros++
			}
		}
		if zeros != 2 {
			t.Fatalf("scoped=%v: expected both reads 0, history: %v", scoped, h.Ops)
		}
		a, err := h.Analyze()
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		ok, _, err := check.SequentiallyConsistent(a)
		if err != nil {
			t.Fatalf("SC search: %v", err)
		}
		if ok {
			t.Fatalf("scoped=%v: weak SB outcome should not be SC", scoped)
		}
		sys.Close()
	}
}

// runScopedMP runs message passing with causal reads on one substrate — the
// consumer awaits the flag, then reads the data — fails on any
// mixed-consistency violation, and returns what the consumer read. A nil
// scope broadcasts.
func runScopedMP(t *testing.T, sub bench.Substrate, scope *dsm.ScopeMap, batch dsm.BatchConfig) int64 {
	t.Helper()
	sys := newSystem(t, sub, core.Config{Procs: 2, Record: true, Placement: scope, Batch: batch})
	defer sys.Close()
	var got int64
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("data", 41)
			p.Write("data", 42)
			p.Write("flag", 1)
		} else {
			p.Await("flag", 1)
			got = p.ReadCausal("data")
		}
	})
	if violations, _ := analyzeMixed(t, sys); violations != 0 {
		t.Fatalf("%v MP(scoped=%v, batch=%+v) flagged as inconsistent", sub, scope != nil, batch)
	}
	return got
}

// runScopedChain runs the three-process causal chain on one substrate: 0
// writes a, 1 observes a and writes b, 2 observes b and must see a. Under
// scope, process 2 learns about a's copy only transitively through 1's
// dependency matrix. It returns what process 2 read.
func runScopedChain(t *testing.T, sub bench.Substrate, scope *dsm.ScopeMap) int64 {
	t.Helper()
	sys := newSystem(t, sub, core.Config{Procs: 3, Record: true, Placement: scope})
	defer sys.Close()
	var got int64
	sys.Run(func(p *core.Proc) {
		switch p.ID() {
		case 0:
			p.Write("a", 1)
		case 1:
			p.Await("a", 1)
			p.Write("b", 1)
		case 2:
			p.Await("b", 1)
			got = p.ReadCausal("a")
		}
	})
	if violations, _ := analyzeMixed(t, sys); violations != 0 {
		t.Fatalf("%v chain(scoped=%v) flagged as inconsistent", sub, scope != nil)
	}
	return got
}

// TestScopedLitmusMPVerdictUnchanged runs message passing under broadcast and
// under scope, batched and not: the consumer must read the data after the
// flag in all four, and every history must be mixed-consistent.
func TestScopedLitmusMPVerdictUnchanged(t *testing.T) {
	for _, scope := range []*dsm.ScopeMap{nil, mpScope()} {
		for _, batch := range []dsm.BatchConfig{{}, {Enabled: true, MaxUpdates: 8}} {
			if got := runScopedMP(t, simSubstrate, scope, batch); got != 42 {
				t.Fatalf("MP(scoped=%v, batch=%+v) read data=%d, want 42", scope != nil, batch, got)
			}
		}
	}
}

// TestScopedLitmusCausalChainVerdictUnchanged runs the causal chain under
// broadcast and under scope: process 2 must see a either way.
func TestScopedLitmusCausalChainVerdictUnchanged(t *testing.T) {
	for _, scope := range []*dsm.ScopeMap{nil, chainScope()} {
		if got := runScopedChain(t, simSubstrate, scope); got != 1 {
			t.Fatalf("chain(scoped=%v) read a=%d, want 1 (causal chain broken)", scope != nil, got)
		}
	}
}

// TestScopedLitmusTCP reruns MP and the causal chain over real TCP sockets
// with causal-scoped placement: same programs, same verdicts.
func TestScopedLitmusTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP litmus in -short mode")
	}
	if got := runScopedMP(t, tcpSubstrate, mpScope(), dsm.BatchConfig{}); got != 42 {
		t.Fatalf("scoped MP over TCP read data=%d, want 42", got)
	}
	if got := runScopedChain(t, tcpSubstrate, chainScope()); got != 1 {
		t.Fatalf("scoped chain over TCP read a=%d, want 1", got)
	}
}
