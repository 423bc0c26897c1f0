package apps

import (
	"testing"
	"time"

	"mixedmem/internal/check"
	"mixedmem/internal/core"
	"mixedmem/internal/network"
)

// sessionTestConfig is the small session workload the unit tests run: big
// enough that every code path fires (flags, probers, aggregates, warmup
// boundary), small enough for -short CI.
func sessionTestConfig(mode SessionMode) SessionConfig {
	return SessionConfig{
		Procs:    3,
		Workers:  2,
		Sessions: 2, SessionKeys: 4,
		Ops: 60, Warmup: 10,
		ReadFraction: 0.5, ZipfS: 0.9,
		AggGroups: 4, AggEvery: 4, AggReadEvery: 8,
		VisEvery: 4,
		Seed:     11,
		Mode:     mode,
	}
}

// fastLatency keeps the simulated fabric quick for unit tests.
var fastLatency = network.LatencyModel{Fixed: 20 * time.Microsecond}

// runSessionSystem executes the session workload on a simulated system and
// returns the per-process results, verifying the aggregate counters on
// every process before tearing down.
func runSessionSystem(t *testing.T, cfg SessionConfig, record bool, verify bool) (*core.System, []*SessionProcResult) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Procs:     cfg.Procs,
		Latency:   fastLatency,
		Seed:      cfg.Seed,
		Record:    record,
		Placement: SessionScope(cfg),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	results := make([]*SessionProcResult, cfg.Procs)
	sys.Run(func(p *core.Proc) {
		results[p.ID()] = ServeSessions(p, cfg)
		if verify {
			if err := VerifySessionCounters(p, cfg); err != nil {
				t.Errorf("VerifySessionCounters: %v", err)
			}
		}
	})
	return sys, results
}

// TestServeSessionsAllModes runs the session front-end under all three
// placement configurations and checks the workload's invariants: the
// replay-predicted counter totals converge on every process, every
// predicted visibility flag is raised and probed, and the operation counts
// — a pure function of the seeded traces — agree across modes.
func TestServeSessionsAllModes(t *testing.T) {
	var opCounts [3][3]int64 // mode -> (reads, writes, adds), summed over procs
	for _, mode := range []SessionMode{SessionBroadcast, SessionCausalScoped, SessionHybrid} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := sessionTestConfig(mode)
			sys, results := runSessionSystem(t, cfg, false, true)
			defer sys.Close()

			c := cfg.WithDefaults()
			for id, res := range results {
				wantFlags := 0
				for w := 0; w < c.Workers; w++ {
					wantFlags += len(c.FlagPlan(id, w))
				}
				if res.Flags != wantFlags {
					t.Errorf("proc %d raised %d flags, replay predicts %d", id, res.Flags, wantFlags)
				}
				if wantFlags == 0 {
					t.Errorf("proc %d: config produced no visibility flags; test is vacuous", id)
				}
				// Each proc probes exactly the flags addressed to it.
				wantProbes := int64(0)
				for p := 0; p < c.Procs; p++ {
					if p == id {
						continue
					}
					for w := 0; w < c.Workers; w++ {
						for _, probe := range c.FlagPlan(p, w) {
							if probe.Follower == id {
								wantProbes++
							}
						}
					}
				}
				if res.Vis.Count() != wantProbes {
					t.Errorf("proc %d probed %d flags, want %d", id, res.Vis.Count(), wantProbes)
				}
				if wantProbes == 0 {
					t.Errorf("proc %d has no flags addressed to it; test is vacuous", id)
				}
				if res.Read.Count() == 0 || res.Write.Count() == 0 {
					t.Errorf("proc %d: empty measurement histograms (reads %d, writes %d)",
						id, res.Read.Count(), res.Write.Count())
				}
				opCounts[mode][0] += res.Reads
				opCounts[mode][1] += res.Writes
				opCounts[mode][2] += res.Adds
			}
		})
	}
	for _, mode := range []SessionMode{SessionCausalScoped, SessionHybrid} {
		if opCounts[mode] != opCounts[SessionBroadcast] {
			t.Errorf("mode %v op counts %v differ from broadcast's %v — workload is not placement-invariant",
				mode, opCounts[mode], opCounts[SessionBroadcast])
		}
	}
}

// TestSessionWorkloadDeterminism pins the seeded-workload guarantees the S1
// experiment's cross-substrate assertions rest on: fingerprints, flag
// counts, and expected hits are stable across recomputation and sensitive
// to the seed.
func TestSessionWorkloadDeterminism(t *testing.T) {
	cfg := sessionTestConfig(SessionCausalScoped)
	if cfg.WorkloadFingerprint() != cfg.WorkloadFingerprint() {
		t.Fatal("workload fingerprint not stable")
	}
	other := cfg
	other.Seed++
	if cfg.WorkloadFingerprint() == other.WorkloadFingerprint() {
		t.Fatal("different seeds share a workload fingerprint")
	}
	a, b := cfg.ExpectedHits(), cfg.ExpectedHits()
	var total int64
	for g := range a {
		if a[g] != b[g] {
			t.Fatalf("ExpectedHits not stable: %v vs %v", a, b)
		}
		total += a[g]
	}
	c := cfg.WithDefaults()
	want := int64(c.Procs * c.Workers * ((c.Warmup + c.Ops + c.AggEvery - 1) / c.AggEvery))
	if total != want {
		t.Fatalf("ExpectedHits total %d, want %d", total, want)
	}
}

// TestSessionScopeShape spot-checks the placement builder: broadcast mode
// is nil; scoped mode registers each session for its owner and follower
// (causally) and leaves aggregates unregistered; hybrid registers the
// aggregates PRAM-elided (readers everywhere, causal readers nowhere).
func TestSessionScopeShape(t *testing.T) {
	cfg := sessionTestConfig(SessionBroadcast)
	if SessionScope(cfg) != nil {
		t.Fatal("broadcast mode built a scope")
	}

	cfg.Mode = SessionCausalScoped
	scope := SessionScope(cfg)
	c := cfg.WithDefaults()
	for s := 0; s < c.Sessions; s++ {
		loc := sessionLoc(s, 0) // owned by proc 0
		want := []int{0, c.follower(0, s)}
		got := scope.Readers[loc]
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("session %d readers %v, want %v", s, got, want)
		}
		if len(scope.CausalReaders[loc]) != 2 {
			t.Fatalf("session %d causal readers %v, want owner+follower", s, scope.CausalReaders[loc])
		}
	}
	if _, ok := scope.Readers[aggHitsLoc(0)]; ok {
		t.Fatal("causal-scoped mode registered an aggregate")
	}
	plan := c.FlagPlan(0, 0)
	if len(plan) == 0 {
		t.Fatal("no flags planned for strand (0,0)")
	}
	_, flag := visLocs(0, 0, 0)
	if got := scope.Readers[flag]; len(got) != 1 || got[0] != plan[0].Follower {
		t.Fatalf("vis flag readers %v, want the planned follower %d", got, plan[0].Follower)
	}

	cfg.Mode = SessionHybrid
	scope = SessionScope(cfg)
	if got := scope.Readers[aggHitsLoc(0)]; len(got) != cfg.Procs {
		t.Fatalf("hybrid aggregate readers %v, want all %d procs", got, cfg.Procs)
	}
	if _, ok := scope.CausalReaders[aggHitsLoc(0)]; ok {
		t.Fatal("hybrid aggregate has causal readers; wanted the PRAM-elided fast path")
	}
}

// TestSessionRecordedConformance is the litmus guard: the session app's
// access pattern, recorded and replayed through the checker, must be mixed
// consistent under scoped placement exactly as under broadcast — scoping
// may change costs, never verdicts. Aggregate reads are disabled because
// counter increments are abstract-data-type operations the trace does not
// record, so their reads are unaccountable to the checker.
func TestSessionRecordedConformance(t *testing.T) {
	violations := map[SessionMode]int{}
	for _, mode := range []SessionMode{SessionBroadcast, SessionCausalScoped, SessionHybrid} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := sessionTestConfig(mode)
			cfg.Procs = 2
			cfg.Ops, cfg.Warmup = 30, 5
			cfg.AggReadEvery = -1 // counter reads are unverifiable in a trace
			sys, _ := runSessionSystem(t, cfg, true, false)
			defer sys.Close()

			h := sys.History()
			if h == nil {
				t.Fatal("recording system produced no history")
			}
			a, err := h.Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			vs := check.Mixed(a)
			violations[mode] = len(vs)
			if len(vs) != 0 {
				t.Fatalf("session app violated mixed consistency under %v: %v", mode, vs[0])
			}
		})
	}
	for mode, n := range violations {
		if n != violations[SessionBroadcast] {
			t.Fatalf("mode %v verdict (%d violations) differs from broadcast (%d)",
				mode, n, violations[SessionBroadcast])
		}
	}
}
