package dsm

import (
	"fmt"
	"testing"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/vclock"
)

// TestLaterGroupWaitsForParkedHead pins the one sender-order mechanism: no
// update carries a predecessor, so only the per-sender queue keeps a sender's
// groups in channel order. Under a scope, node 1's first obMatrix update to
// node 2 depends on node 0's write, whose channel to node 2 is held, and
// parks. Node 1's second update arrives with every dependency already met;
// it must park behind the first rather than apply in place, and once node 0's
// write is released all three must enter the causal view in order.
func TestLaterGroupWaitsForParkedHead(t *testing.T) {
	const n = 3
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	tracer := obs.NewTracer(2, 1<<10)
	scope := &ScopeMap{
		Readers:       map[string][]int{"a": {1, 2}, "x": {2}},
		CausalReaders: map[string][]int{"a": {1, 2}, "x": {2}},
	}
	r, err := NewNode(Config{ID: 2, N: n, Transport: f, Scope: scope, Tracer: tracer})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer func() {
		f.Close()
		r.Close()
	}()
	// deps builds a matrix whose row 2 — node 2's wait condition — is row.
	deps := func(row ...uint64) vclock.Matrix {
		m := vclock.NewMatrix(n)
		copy(m[2], row)
		return m
	}
	send := func(u *Update) {
		t.Helper()
		if err := f.Send(network.Message{From: u.From, To: 2, Kind: KindUpdate, Payload: u, Size: u.encodedSize()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	send(&Update{From: 0, Seq: 1, Op: OpSet, Loc: "a", Value: 1, Deps: deps(1)})
	send(&Update{From: 1, Seq: 1, Op: OpSet, Loc: "x", Value: 1, Deps: deps(1, 1)})
	send(&Update{From: 1, Seq: 2, Op: OpSet, Loc: "x", Value: 2, Deps: deps(0, 2)})
	r.WaitReceived([]uint64{0, 2, 0})

	if s := r.Stats(); s.PendingGroups != 2 {
		t.Fatalf("PendingGroups = %d, want 2: node 1's covered second update applied past its parked first", s.PendingGroups)
	}
	if got := r.causalSnapshotValue("x"); got != 0 {
		t.Fatalf("causal x = %d before node 0's held write", got)
	}
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	within(t, "release of node 1's parked updates", func() { r.WaitCausalApplied([]uint64{1, 2, 0}) })
	if got := r.ReadCausal("x"); got != 2 {
		t.Fatalf("causal x = %d, want 2: node 1's updates entered the causal view out of order", got)
	}
	var released []string
	for _, e := range tracer.Snapshot().Events {
		if e.Type == obs.EvGroupRelease {
			released = append(released, fmt.Sprintf("%d:%d", e.Peer, e.Seq))
		}
	}
	if got, want := fmt.Sprint(released), "[0:1 1:1 1:2]"; got != want {
		t.Fatalf("groups released as %s, want %s", got, want)
	}
}

// TestObligationTable pins the one decision the delivery core switches on, on
// both sides: what a copy of a write is stamped with (node configuration ×
// label × how its reader is registered) and what a received group waits for
// (node configuration × label × the metadata it arrived with: of the right
// dimension, of the wrong one, or absent).
func TestObligationTable(t *testing.T) {
	const n = 3
	scope := &ScopeMap{Readers: map[string][]int{"x": {0, 1, 2}}}
	configs := map[string]Config{
		"broadcast":       {},
		"PRAMOnly":        {PRAMOnly: true},
		"scoped-causal":   {Scope: scope},
		"scoped-PRAMOnly": {Scope: scope, PRAMOnly: true},
	}
	none, slow, pram, causal := history.LabelNone, history.LabelSlow, history.LabelPRAM, history.LabelCausal
	type recv struct {
		ob        obligation
		malformed bool
	}
	ok := func(ob obligation) recv { return recv{ob: ob} }
	bad := recv{ob: obFIFO, malformed: true}
	rows := []struct {
		config string
		label  history.Label
		// send: to a causal-registered reader (without a scope: any peer),
		// to a PRAM-registered one.
		sendCausal, sendPRAM obligation
		// receive: metadata well-formed, of the wrong dimension, absent.
		wellFormed, wrongDim, absent recv
	}{
		{"broadcast", none, obVector, obVector, ok(obVector), bad, bad},
		{"broadcast", slow, obFIFO, obFIFO, ok(obFIFO), ok(obFIFO), ok(obFIFO)},
		{"broadcast", pram, obVector, obVector, ok(obVector), bad, bad},
		{"broadcast", causal, obVector, obVector, ok(obVector), bad, bad},

		{"PRAMOnly", none, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
		{"PRAMOnly", slow, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
		{"PRAMOnly", pram, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
		{"PRAMOnly", causal, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},

		{"scoped-causal", none, obMatrix, obNone, ok(obMatrix), bad, ok(obNone)},
		{"scoped-causal", slow, obMatrix, obNone, ok(obMatrix), bad, ok(obNone)},
		{"scoped-causal", pram, obMatrix, obNone, ok(obMatrix), bad, ok(obNone)},
		{"scoped-causal", causal, obMatrix, obNone, ok(obMatrix), bad, ok(obNone)},

		{"scoped-PRAMOnly", none, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
		{"scoped-PRAMOnly", slow, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
		{"scoped-PRAMOnly", pram, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
		{"scoped-PRAMOnly", causal, obNone, obNone, ok(obNone), ok(obNone), ok(obNone)},
	}
	nodes := make(map[string]*Node, len(configs))
	for name, cfg := range configs {
		f, err := network.New(network.Config{Nodes: n})
		if err != nil {
			t.Fatalf("network.New: %v", err)
		}
		cfg.ID, cfg.N, cfg.Transport = 1, n, f
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", name, err)
		}
		defer func() {
			f.Close()
			nd.Close()
		}()
		nodes[name] = nd
	}
	for _, r := range rows {
		nd := nodes[r.config]
		name := fmt.Sprintf("%s/%v", r.config, r.label)
		if got := nd.sendObligation(r.label, true); got != r.sendCausal {
			t.Errorf("%s: copy to a causal reader stamped %d, want %d", name, got, r.sendCausal)
		}
		if got := nd.sendObligation(r.label, false); got != r.sendPRAM {
			t.Errorf("%s: copy to a PRAM reader stamped %d, want %d", name, got, r.sendPRAM)
		}
		// A sender stamps a timestamp or a matrix, never both; each metadata
		// case offers both at its dimension so every configuration finds the
		// one it reads.
		for _, m := range []struct {
			name string
			dim  int
			want recv
		}{{"well-formed", n, r.wellFormed}, {"wrong dimension", n + 2, r.wrongDim}, {"absent", 0, r.absent}} {
			var ts vclock.VC
			var deps vclock.Matrix
			if m.dim > 0 {
				ts, deps = vclock.New(m.dim), vclock.NewMatrix(m.dim)
			}
			g := deliveryGroup{from: 0, firstSeq: 5, lastSeq: 5, count: 1}
			nd.classify(&g, r.label, ts, deps)
			if got := (recv{g.ob, g.malformed}); got != m.want {
				t.Errorf("%s, %s metadata: received under %+v, want %+v", name, m.name, got, m.want)
			}
			if (g.need != nil) != (g.ob >= obVector) || (g.deps != nil) != (g.ob == obMatrix) {
				t.Errorf("%s, %s metadata: obligation %d carries need=%v deps=%v", name, m.name, g.ob, g.need, g.deps)
			}
		}
	}
}
