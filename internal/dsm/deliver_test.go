package dsm

import (
	"fmt"
	"testing"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/vclock"
)

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
			nd.classify(&g, r.label, ts, 3, deps)
			if got := (recv{g.ob, g.malformed}); got != m.want {
				t.Errorf("%s, %s metadata: received under %+v, want %+v", name, m.name, got, m.want)
			}
			// The sender-order predecessor: the chain pointer wherever the
			// destination's stream has holes, the previous sequence number
			// elsewhere.
			wantPrev := uint64(4)
			if r.config == "scoped-causal" && g.ob != obNone {
				wantPrev = 3
			}
			if g.ob != obNone && g.prev != wantPrev {
				t.Errorf("%s, %s metadata: prev = %d, want %d", name, m.name, g.prev, wantPrev)
			}
			if (g.need != nil) != (g.ob >= obVector) || (g.deps != nil) != (g.ob == obMatrix) {
				t.Errorf("%s, %s metadata: obligation %d carries need=%v deps=%v", name, m.name, g.ob, g.need, g.deps)
			}
		}
	}
}
