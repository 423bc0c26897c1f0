package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixedmem/internal/check"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
)

// scopedConformanceScope is the placement used by the scoped conformance
// fuzzer: one fully-causal location, one with a mix of causal and elided
// readers, one PRAM-elided everywhere. Writes to v1 exercise mixed batches
// (a causal copy to one reader, an elided copy to another, each riding in its
// destination's batch beside the other locations' copies), and v2 exercises
// the pure fast path under the same adversary schedule.
func scopedConformanceScope() *dsm.ScopeMap {
	return &dsm.ScopeMap{
		Readers: map[string][]int{
			"v0": {1, 2}, "v1": {0, 2}, "v2": {0, 1},
		},
		CausalReaders: map[string][]int{
			"v0": {1, 2}, "v1": {0},
		},
	}
}

// scopedMenus lists, per process, the locations scopedConformanceScope
// registers it for: causal, where it may read either way, and elided, where
// its copies carry no causal metadata and it may only PRAM-read.
type scopedMenu struct {
	causal []string
	elided []string
}

func scopedMenus() [3]scopedMenu {
	return [3]scopedMenu{
		{causal: []string{"v1"}, elided: []string{"v2"}},
		{causal: []string{"v0"}, elided: []string{"v2"}},
		{causal: []string{"v0"}, elided: []string{"v1"}},
	}
}

// TestRuntimeScopedMixedConsistent is the causal-scoped analogue of the
// runtime conformance fuzzer: random racing programs where every read honors
// the registration contract, executed under a random network adversary, must
// record mixed-consistent histories even though updates now travel point to
// point with dependency matrices instead of timestamped broadcast.
func TestRuntimeScopedMixedConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing test")
	}
	for seed := int64(300); seed < 312; seed++ {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			checkScopedHistory(t, runScopedRacyProgram(t, seed, dsm.BatchConfig{}))
		})
	}
}

// TestRuntimeScopedMixedConsistentBatched re-runs the scoped fuzzer with a
// narrow outbox window, so causal and elided copies to the same destination
// share batches — causal groups with elided holes — while the adversary holds
// channels.
func TestRuntimeScopedMixedConsistentBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing test")
	}
	batch := dsm.BatchConfig{Enabled: true, MaxUpdates: 4, Linger: 200 * time.Microsecond}
	for seed := int64(400); seed < 410; seed++ {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			checkScopedHistory(t, runScopedRacyProgram(t, seed, batch))
		})
	}
}

// runScopedRacyProgram runs a random scoped program under an adversary
// toggling channel holds, and returns the recorded history. Every generated
// program honours the whole ScopeMap contract: a process writes freely but
// reads only the locations it is registered for, causally only where it is a
// causal reader, and once it has PRAM-read an elided copy it only PRAM-reads —
// no later write relays, and no later causal read of its own depends on, what
// that read observed.
func runScopedRacyProgram(t *testing.T, seed int64, batch dsm.BatchConfig) *history.History {
	t.Helper()
	const (
		procs      = 3
		opsPerProc = 12
	)
	sys, err := NewSystem(Config{
		Procs: procs, Record: true, Batch: batch,
		Placement: scopedConformanceScope(),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()

	stop := make(chan struct{})
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		r := rand.New(rand.NewSource(seed * 7919))
		type pair struct{ from, to int }
		var held []pair
		defer func() {
			for _, p := range held {
				_ = sys.Fabric().Release(p.from, p.to)
			}
		}()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(100+r.Intn(400)) * time.Microsecond):
			}
			if len(held) > 0 && r.Intn(2) == 0 {
				idx := r.Intn(len(held))
				p := held[idx]
				_ = sys.Fabric().Release(p.from, p.to)
				held = append(held[:idx], held[idx+1:]...)
				continue
			}
			from, to := r.Intn(procs), r.Intn(procs)
			if from == to {
				continue
			}
			_ = sys.Fabric().Hold(from, to)
			held = append(held, pair{from, to})
		}
	}()

	menus := scopedMenus()
	var unique atomic.Int64
	sys.Run(func(p *Proc) {
		r := rand.New(rand.NewSource(seed + int64(p.ID())*1001))
		menu := menus[p.ID()]
		readsOnly := false // set by the first PRAM read of an elided copy
		for i := 0; i < opsPerProc; i++ {
			op := r.Intn(4)
			if readsOnly {
				op = 1
			}
			switch op {
			case 0:
				p.Write("v"+strconv.Itoa(r.Intn(3)), unique.Add(1))
			case 1:
				if r.Intn(2) == 0 {
					p.ReadPRAM(menu.causal[r.Intn(len(menu.causal))])
				} else {
					p.ReadPRAM(menu.elided[r.Intn(len(menu.elided))])
					readsOnly = true
				}
			case 2:
				p.ReadCausal(menu.causal[r.Intn(len(menu.causal))])
			default:
				time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
				p.ReadCausal(menu.causal[r.Intn(len(menu.causal))])
			}
		}
	})
	close(stop)
	<-advDone
	return sys.History()
}

// checkScopedHistory checks a scoped fuzz history: first that the program
// honoured the ScopeMap contract, which the runtime relies on and cannot
// enforce, then Definition 4.
func checkScopedHistory(t *testing.T, h *history.History) {
	t.Helper()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := scopeContractViolation(a, scopedConformanceScope()); v != "" {
		t.Fatalf("the generated program broke the ScopeMap contract: %s", v)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("scoped runtime violated mixed consistency: %v", v[0])
	}
}

// scopeContractViolation returns the first read of the history that breaks
// the ScopeMap registration contract (dsm.ScopeMap), or "": a read of a
// location the process is not registered for, a causal read where it is
// registered for PRAM reads only, or a PRAM read of such an elided copy that
// observed a write some causal read causally follows — the elided copy
// carried no metadata to order that causal read by.
func scopeContractViolation(a *history.Analysis, scope *dsm.ScopeMap) string {
	ops := a.H.Ops
	for _, r := range ops {
		readers, scoped := scope.Readers[r.Loc]
		if r.Kind != history.Read || !scoped {
			continue
		}
		switch {
		case !slices.Contains(readers, r.Proc):
			return fmt.Sprintf("%v reads a location its process is not registered for", r)
		case slices.Contains(scope.CausalReaders[r.Loc], r.Proc):
			continue
		case r.Label == history.LabelCausal:
			return fmt.Sprintf("%v is a causal read of a PRAM-registered location", r)
		}
		for _, w := range ops {
			// An own write precedes the read in program order anyway.
			if !a.RF.Has(w.ID, r.ID) || w.Proc == r.Proc {
				continue
			}
			for _, c := range ops {
				if c.Kind == history.Read && c.Label == history.LabelCausal && a.Causality.Has(r.ID, c.ID) {
					return fmt.Sprintf("%v observed %v through an elided copy, and the causal read %v depends on it", r, w, c)
				}
			}
		}
	}
	return ""
}

// TestScopeContractCheck holds the contract check to the first chain the
// scoped fuzzer used to generate: p2 and p0 PRAM-read elided copies (v1 at p2,
// v2 at p0), and what they observed feeds p0's causal read of v1. The history
// breaks Definition 4, and the contract check must name the elided read
// first; without the causal read the same history honours the contract.
func TestScopeContractCheck(t *testing.T) {
	chain := func(causalRead bool) *history.Analysis {
		b := history.NewBuilder(3)
		b.Write(1, "v1", 3)
		b.Read(2, "v1", 3, history.LabelPRAM)
		b.Write(2, "v2", 4)
		b.Read(0, "v2", 4, history.LabelPRAM)
		b.Write(0, "v1", 7)
		if causalRead {
			b.Read(0, "v1", 3, history.LabelCausal)
		}
		a, err := b.History().Analyze()
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		return a
	}
	a := chain(true)
	if len(check.Mixed(a)) == 0 {
		t.Fatal("chain 1 should violate Definition 4")
	}
	v := scopeContractViolation(a, scopedConformanceScope())
	if !strings.Contains(v, "r2(v1)3[PRAM]") {
		t.Fatalf("contract check on chain 1 = %q, want the elided read r2(v1)3[PRAM] named", v)
	}
	if v := scopeContractViolation(chain(false), scopedConformanceScope()); v != "" {
		t.Fatalf("contract check without the causal read = %q, want none", v)
	}
}

// TestLearnedScopeRoundTrip runs a deterministic relay program with access
// tracking on, derives a placement from the recorded accesses, and re-runs
// the same program under that learned scope: the learned map must name
// exactly the observed readers and the scoped re-run must produce the same
// values and a mixed-consistent history.
func TestLearnedScopeRoundTrip(t *testing.T) {
	relay := func(sys *System) (int64, int64) {
		var causalX, pramF int64
		sys.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Write("x", 7)
				p.Write("f", 1)
			case 1:
				p.Await("f", 1)
				p.Write("g", 1)
			case 2:
				p.Await("g", 1)
				causalX = p.ReadCausal("x")
				pramF = p.ReadPRAM("f")
			}
		})
		return causalX, pramF
	}

	learnSys, err := NewSystem(Config{Procs: 3, TrackAccess: true})
	if err != nil {
		t.Fatalf("NewSystem(track): %v", err)
	}
	if x, _ := relay(learnSys); x != 7 {
		t.Fatalf("profiling run read x=%d, want 7", x)
	}
	scope := learnSys.LearnedScope()
	learnSys.Close()
	if scope == nil {
		t.Fatal("LearnedScope returned nil after a tracked run")
	}
	// Awaits and causal reads are causal accesses; the plain PRAM read of f
	// must be learned as a PRAM-only registration for process 2.
	if got := scope.CausalReaders["x"]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("learned causal readers of x = %v, want [2]", got)
	}
	if got := scope.CausalReaders["f"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("learned causal readers of f = %v, want [1]", got)
	}
	if got := scope.Readers["f"]; len(got) != 2 {
		t.Fatalf("learned readers of f = %v, want procs 1 and 2", got)
	}

	scopedSys, err := NewSystem(Config{Procs: 3, Record: true, Placement: scope})
	if err != nil {
		t.Fatalf("NewSystem(learned scope): %v", err)
	}
	defer scopedSys.Close()
	x, f := relay(scopedSys)
	if x != 7 || f != 1 {
		t.Fatalf("scoped re-run read x=%d f=%d, want 7 and 1", x, f)
	}
	a, err := scopedSys.History().Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("scoped re-run violated mixed consistency: %v", v[0])
	}
}
