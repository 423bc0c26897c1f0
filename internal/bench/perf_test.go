package bench

import "testing"

// TestPerfGridFreshAndBacklogCells runs the sim perf grid at a tiny op count
// and checks the two receive-path scenarios. The backlog cell validates
// itself — it errors unless exactly perfBacklog groups stay parked through
// the measurement and all of them drain on release — so a clean run is the
// assertion; the fresh cells must show the insert path's allocation shape
// (about one table entry per replica per write, never a table copy).
func TestPerfGridFreshAndBacklogCells(t *testing.T) {
	r, err := RunPerf(PerfOptions{Ops: 512, Warmup: 64})
	if err != nil {
		t.Fatalf("RunPerf: %v", err)
	}
	seen := map[string]PerfCell{}
	for _, c := range r.Cells {
		seen[c.Key()] = c
	}
	if len(seen) != len(perfGrid()) {
		t.Fatalf("grid ran %d cells, want %d", len(seen), len(perfGrid()))
	}
	for _, key := range []string{"sim/fresh/pram/b0/w1/r0", "sim/fresh/causal/b0/w1/r0"} {
		c, ok := seen[key]
		if !ok || c.Ops != 512 {
			t.Fatalf("cell %s missing or short: %+v", key, c)
		}
		// Four replicas insert per write, plus the message boxing, the causal
		// timestamp, and amortised doublings: comfortably under ten.
		if c.AllocsPerOp > 10 {
			t.Errorf("%s: %.1f allocs/op; a fresh location must cost an entry per replica, not a table copy",
				key, c.AllocsPerOp)
		}
	}
	if c, ok := seen["sim/backlog/causal/b0/w1/r0"]; !ok || c.Ops != 512 {
		t.Fatalf("backlog cell missing or short: %+v", c)
	}

	// The backlog scenario needs four replicas; a smaller system skips it.
	small, err := RunPerf(PerfOptions{Procs: 3, Ops: 64, Warmup: 8})
	if err != nil {
		t.Fatalf("RunPerf(procs=3): %v", err)
	}
	for _, c := range small.Cells {
		if c.Scenario == "backlog" {
			t.Fatalf("backlog cell ran on %d replicas", small.Procs)
		}
	}
}
