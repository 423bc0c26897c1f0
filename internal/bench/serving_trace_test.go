package bench

import (
	"testing"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// tracedServingOptions is the minimal sweep with tracing on: one
// closed-loop hybrid cell, rings sized so no chain anchor can wrap.
func tracedServingOptions() ServingOptions {
	return ServingOptions{
		Procs: 3, Workers: 2,
		Ops: 40, Warmup: 8,
		Rates:         []float64{0},
		Modes:         []apps.SessionMode{apps.SessionHybrid},
		Substrate:     Substrate{Latency: network.LatencyModel{Fixed: 10 * time.Microsecond}},
		Seed:          23,
		TraceCapacity: 1 << 15,
	}
}

// checkAttribution is the ISSUE's acceptance gate on one substrate's
// traces: every sampled write-visibility interval must telescope into
// named segments covering at least 95% of it, with no incomplete chains.
func checkAttribution(t *testing.T, traces []*obs.Snapshot) {
	t.Helper()
	ex := obs.Explain(traces, apps.IsVisFlagLoc)
	if len(ex.Breakdowns) == 0 {
		t.Fatal("no trace breakdowns")
	}
	for _, b := range ex.Breakdowns {
		t.Logf("%s: %d samples, min attribution %.1f%%, total p99 %v",
			b.Tag, b.Samples, b.MinAttribution*100, b.TotalP99)
		if b.Samples == 0 {
			t.Errorf("%s: no write-visibility samples in trace", b.Tag)
		}
		if b.Incomplete != 0 {
			t.Errorf("%s: %d incomplete chains (ring wrapped?)", b.Tag, b.Incomplete)
		}
		if b.MinAttribution < 0.95 {
			t.Errorf("%s: attribution %.3f below the 0.95 gate", b.Tag, b.MinAttribution)
		}
	}
}

// TestServingTraceAttributionSim runs a traced S1 cell on the simulated
// fabric and requires the causal-path explainer to attribute ≥95% of every
// sampled write-visibility interval to named segments.
func TestServingTraceAttributionSim(t *testing.T) {
	res, err := RunServing(tracedServingOptions())
	if err != nil {
		t.Fatalf("RunServing: %v", err)
	}
	opts := tracedServingOptions()
	if want := opts.Procs * len(opts.Rates) * len(opts.Modes); len(res.Traces) != want {
		t.Fatalf("got %d trace snapshots, want %d", len(res.Traces), want)
	}
	for _, s := range res.Traces {
		if s.Dropped != 0 {
			t.Fatalf("node %d dropped %d events; grow the test ring", s.Node, s.Dropped)
		}
	}
	checkAttribution(t, res.Traces)

	// A traced run and an untraced run draw the same seeded workload.
	plain, err := RunServing(fastServingOptions())
	if err != nil {
		t.Fatalf("RunServing (untraced): %v", err)
	}
	if res.Cells[0].Fingerprint != plain.Cells[0].Fingerprint {
		t.Errorf("tracing changed the workload fingerprint: %x vs %x",
			res.Cells[0].Fingerprint, plain.Cells[0].Fingerprint)
	}
}

// TestServingTraceAttributionTCP is the same gate over loopback TCP — the
// chain events cross real sockets, so this also proves the codec-free
// in-process snapshot path works per peer and the tags line up per cell.
func TestServingTraceAttributionTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP serving in -short mode")
	}
	opt := tracedServingOptions()
	opt.Substrate = Substrate{TCP: true}
	res, err := RunServing(opt)
	if err != nil {
		t.Fatalf("RunServing over tcp: %v", err)
	}
	checkAttribution(t, res.Traces)
}
