package bench

import (
	"testing"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/network"
)

// servingTestOptions is a reduced S1 sweep: two load points (a paced one
// and closed-loop, the highest), broadcast versus causal-scoped. The
// modeled per-message latency is set well above what request issue costs
// even on a contended host running the race detector, so the per-pair pump
// — the queueing effect under test — stays the bottleneck in both modes
// and the tail ordering is not at the mercy of CPU scheduling noise.
func servingTestOptions() ServingOptions {
	return ServingOptions{
		Procs: 4, Workers: 2,
		Ops: 100, Warmup: 16,
		Rates:     []float64{2000, 0},
		Modes:     []apps.SessionMode{apps.SessionBroadcast, apps.SessionCausalScoped},
		Substrate: Substrate{Latency: network.LatencyModel{Fixed: time.Millisecond}},
		Seed:      17,
	}
}

// TestServingScopedBeatsBroadcastTail is the S1 acceptance claim: at the
// highest offered-load point (closed-loop), the causal-scoped configuration
// must show lower p99 write-visibility latency than all-causal broadcast —
// scoped session updates queue behind one follower's traffic instead of a
// full copy of everything on every pair.
func TestServingScopedBeatsBroadcastTail(t *testing.T) {
	res, err := RunServing(servingTestOptions())
	if err != nil {
		t.Fatalf("RunServing: %v", err)
	}
	opts := servingTestOptions()
	if len(res.Cells) != len(opts.Rates)*len(opts.Modes) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(opts.Rates)*len(opts.Modes))
	}
	// The last rate is the highest load point; find its two mode cells.
	var broadcast, scoped *ServingCell
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Rate != 0 {
			continue
		}
		switch c.Mode {
		case apps.SessionBroadcast.String():
			broadcast = c
		case apps.SessionCausalScoped.String():
			scoped = c
		}
	}
	if broadcast == nil || scoped == nil {
		t.Fatal("missing closed-loop cells")
	}
	for _, c := range []*ServingCell{broadcast, scoped} {
		if c.Read.Count == 0 || c.Write.Count == 0 || c.Vis.Count == 0 {
			t.Fatalf("cell %q has empty histograms: %+v", c.Mode, c)
		}
	}
	t.Logf("closed-loop p99 write-visibility: broadcast %v, causal-scoped %v",
		time.Duration(broadcast.Vis.P99), time.Duration(scoped.Vis.P99))
	if scoped.Vis.P99 >= broadcast.Vis.P99 {
		t.Errorf("closed-loop p99 write-visibility: causal-scoped %v >= broadcast %v",
			scoped.Vis.P99, broadcast.Vis.P99)
	}
	if scoped.UpdateMsgs >= broadcast.UpdateMsgs {
		t.Errorf("update messages: causal-scoped %d >= broadcast %d",
			scoped.UpdateMsgs, broadcast.UpdateMsgs)
	}
	// The workload is placement-invariant: same fingerprint in every cell
	// of a load point.
	if scoped.Fingerprint != broadcast.Fingerprint {
		t.Errorf("fingerprints differ across modes: %x vs %x",
			scoped.Fingerprint, broadcast.Fingerprint)
	}
}

// fastServingOptions is a minimal sweep on a near-zero-latency fabric, for
// the determinism checks.
func fastServingOptions() ServingOptions {
	return ServingOptions{
		Procs: 3, Workers: 2,
		Ops: 40, Warmup: 8,
		Rates:     []float64{0},
		Modes:     []apps.SessionMode{apps.SessionHybrid},
		Substrate: Substrate{Latency: network.LatencyModel{Fixed: 10 * time.Microsecond}},
		Seed:      23,
	}
}

// TestServingDeterministicWorkload pins the fixed-seed guarantee: re-running
// a cell reproduces the workload fingerprint and the request counts exactly
// (latencies are wall-clock and may differ).
func TestServingDeterministicWorkload(t *testing.T) {
	a, err := RunServing(fastServingOptions())
	if err != nil {
		t.Fatalf("RunServing: %v", err)
	}
	b, err := RunServing(fastServingOptions())
	if err != nil {
		t.Fatalf("RunServing (rerun): %v", err)
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Fingerprint != cb.Fingerprint {
			t.Errorf("cell %d fingerprint changed across runs: %x vs %x", i, ca.Fingerprint, cb.Fingerprint)
		}
		if ca.Read.Count != cb.Read.Count || ca.Write.Count != cb.Write.Count || ca.Vis.Count != cb.Vis.Count {
			t.Errorf("cell %d sample counts changed across runs: %+v vs %+v", i, ca, cb)
		}
	}
}

// TestServingTCPMatchesSimWorkload runs the minimal sweep over loopback TCP
// and asserts the workload fingerprints equal the simulated run's — the
// cross-substrate determinism the S1 rows advertise.
func TestServingTCPMatchesSimWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP serving in -short mode")
	}
	sim, err := RunServing(fastServingOptions())
	if err != nil {
		t.Fatalf("RunServing: %v", err)
	}
	opt := fastServingOptions()
	opt.Substrate = Substrate{TCP: true}
	tcp, err := RunServing(opt)
	if err != nil {
		t.Fatalf("RunServing over tcp: %v", err)
	}
	if sim.Transport != "sim" || tcp.Transport != "tcp" {
		t.Fatalf("results name their substrates %q and %q, want sim and tcp", sim.Transport, tcp.Transport)
	}
	if len(sim.Cells) != len(tcp.Cells) {
		t.Fatalf("cell count mismatch: sim %d, tcp %d", len(sim.Cells), len(tcp.Cells))
	}
	for i := range sim.Cells {
		if sim.Cells[i].Fingerprint != tcp.Cells[i].Fingerprint {
			t.Errorf("cell %d fingerprint differs across substrates: sim %x, tcp %x",
				i, sim.Cells[i].Fingerprint, tcp.Cells[i].Fingerprint)
		}
		if sim.Cells[i].Vis.Count != tcp.Cells[i].Vis.Count {
			t.Errorf("cell %d probe counts differ across substrates: sim %d, tcp %d",
				i, sim.Cells[i].Vis.Count, tcp.Cells[i].Vis.Count)
		}
	}
}
