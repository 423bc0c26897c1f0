package bench

import (
	"testing"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
)

func TestRunTimestampAblation(t *testing.T) {
	r, err := RunTimestampAblation(10, 3, network.LatencyModel{}, 1)
	if err != nil {
		t.Fatalf("RunTimestampAblation: %v", err)
	}
	if !r.ResidualsMatch {
		t.Fatal("elided run did not converge like the full run")
	}
	if r.ElidedBytes >= r.FullBytes {
		t.Fatalf("timestamp elision did not save bytes: %+v", r)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestRunPropagationCostSweep(t *testing.T) {
	// 10 buffered updates; the writer->acquirer channel is 100x slower
	// than the control channels. Each mode must pay at its characteristic
	// point, with a clear separation.
	lat := network.LatencyModel{Fixed: 100 * time.Microsecond}
	rows, err := RunPropagationCostSweep(10, 100, lat)
	if err != nil {
		t.Fatalf("RunPropagationCostSweep: %v", err)
	}
	byMode := map[syncmgr.PropagationMode]PropagationCost{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	eager := byMode[syncmgr.Eager]
	lazy := byMode[syncmgr.Lazy]
	demand := byMode[syncmgr.DemandDriven]

	// Eager pays at release; the others release quickly.
	if eager.ReleaseWait < 3*lazy.ReleaseWait || eager.ReleaseWait < 3*demand.ReleaseWait {
		t.Errorf("eager should pay at release: eager=%v lazy=%v demand=%v",
			eager.ReleaseWait, lazy.ReleaseWait, demand.ReleaseWait)
	}
	// Lazy pays at acquire; eager and demand-driven acquire quickly.
	if lazy.AcquireWait < 3*eager.AcquireWait || lazy.AcquireWait < 3*demand.AcquireWait {
		t.Errorf("lazy should pay at acquire: eager=%v lazy=%v demand=%v",
			eager.AcquireWait, lazy.AcquireWait, demand.AcquireWait)
	}
	// Demand-driven pays at the first read; the others have already paid.
	if demand.ReadWait < 3*eager.ReadWait || demand.ReadWait < 3*lazy.ReadWait {
		t.Errorf("demand should pay at first read: eager=%v lazy=%v demand=%v",
			eager.ReadWait, lazy.ReadWait, demand.ReadWait)
	}
	for _, r := range rows {
		if r.String() == "" {
			t.Error("empty String")
		}
	}
}

// checkPlacementAblation runs A3 on one substrate and asserts its shape.
func checkPlacementAblation(t *testing.T, sub Substrate) {
	t.Helper()
	r, err := RunPlacementAblation(32, 8, 4, sub, 1)
	if err != nil {
		t.Fatalf("RunPlacementAblation(%v): %v", sub, err)
	}
	if !r.ResultsMatch {
		t.Fatalf("%v: scoped run diverged from the sequential reference", sub)
	}
	// With 4 processes each boundary update goes to 1 reader instead of 3
	// peers: roughly a 3x message reduction.
	if r.ScopedMsgs == 0 || r.ScopedMsgs*2 >= r.BroadcastMsgs {
		t.Fatalf("%v: placement did not cut update messages: %+v", sub, r)
	}
	// The causal-scoped row pays dependency matrices per message but sends to
	// the same single reader, so the count reduction must hold there too.
	if r.CausalScopedMsgs == 0 || r.CausalScopedMsgs*2 >= r.BroadcastMsgs {
		t.Fatalf("%v: causal-scoped placement did not cut update messages: %+v", sub, r)
	}
}

func TestRunPlacementAblation(t *testing.T) { checkPlacementAblation(t, Substrate{}) }

func TestRunPlacementAblationTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP ablation in -short mode")
	}
	checkPlacementAblation(t, Substrate{TCP: true})
}
