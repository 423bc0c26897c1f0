package dsm

import (
	"testing"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
)

// labeledCluster builds a fabric and n nodes sharing one Labels map.
func labeledCluster(t *testing.T, n int, labels map[string]history.Label, batch BatchConfig) []*Node {
	t.Helper()
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i], err = NewNode(Config{ID: i, N: n, Transport: f, Labels: labels, Batch: batch})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

func TestLabelsValidation(t *testing.T) {
	f, _ := network.New(network.Config{Nodes: 2})
	defer f.Close()
	if _, err := NewNode(Config{ID: 0, N: 2, Transport: f,
		Labels: map[string]history.Label{"x": history.LabelNone}}); err == nil {
		t.Error("LabelNone in Labels must error")
	}
	if _, err := NewNode(Config{ID: 0, N: 2, Transport: f,
		Labels: map[string]history.Label{"x": history.LabelSC},
		Scope:  &ScopeMap{Readers: map[string][]int{"x": {0, 1}}}}); err == nil {
		t.Error("SC location inside a scope must error")
	}
}

// TestSlowWritePropagatesAndElides: a slow write reaches every replica's
// slow read, carries no timestamp on the wire, and never anchors the
// observation fence (a later causal read does not wait on it).
func TestSlowWritePropagatesAndElides(t *testing.T) {
	labels := map[string]history.Label{"s": history.LabelSlow}
	nodes := labeledCluster(t, 3, labels, BatchConfig{})
	nodes[0].Write("s", 11)
	eventually(t, func() bool { return nodes[2].ReadSlow("s") == 11 },
		"slow read never observed the slow write")
	// The slow location's cell must carry no fence anchor on any replica.
	for i, nd := range nodes {
		h := loctab.Hash("s")
		if c := nd.lookup(h, "s"); c != nil && c.last.Load() != 0 {
			t.Errorf("node %d: slow location carries fence anchor %#x", i, c.last.Load())
		}
	}
	// A causal read elsewhere stays lock-free (fence empty): it must return
	// immediately even though the slow updates never enter a timestamped
	// delivery path.
	done := make(chan int64, 1)
	go func() { done <- nodes[2].ReadCausal("other") }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("causal read blocked after slow traffic")
	}
}

// TestSlowKeepsPerSenderFIFOWithCausalTraffic: a slow update enqueued after
// a causal update from the same sender must not overtake it into the causal
// view's clock (per-sender FIFO across label classes).
func TestSlowKeepsPerSenderFIFOWithCausalTraffic(t *testing.T) {
	labels := map[string]history.Label{"s": history.LabelSlow}
	nodes := labeledCluster(t, 2, labels, BatchConfig{})
	nodes[0].Write("c", 1) // causal, seq 1
	nodes[0].Write("s", 2) // slow, seq 2
	nodes[0].Write("c", 3) // causal, seq 3
	eventually(t, func() bool { return nodes[1].ReadCausal("c") == 3 },
		"causal view never applied the post-slow write")
	eventually(t, func() bool { return nodes[1].causalApplied.get(0) == 3 },
		"causal clock never advanced past the slow update")
	if got := nodes[1].ReadSlow("s"); got != 2 {
		t.Errorf("slow read = %d, want 2", got)
	}
}

// TestSlowBatchDelivery exercises the batched path: slow and causal writes
// interleaved through the outbox ride in one batch, a group under the causal
// write's timestamp, and still apply in per-sender order.
func TestSlowBatchDelivery(t *testing.T) {
	labels := map[string]history.Label{"s": history.LabelSlow}
	nodes := labeledCluster(t, 2, labels, BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour})
	for i := int64(1); i <= 3; i++ {
		nodes[0].Write("s", i)
	}
	nodes[0].Write("c", 10)
	for i := int64(4); i <= 6; i++ {
		nodes[0].Write("s", i)
	}
	nodes[0].FlushUpdates()
	// The sets to s coalesce into one entry: one frame of two entries.
	if got, want := nodes[0].Stats().Flushes.Sync, (FlushCount{Frames: 1, Entries: 2}); got != want {
		t.Fatalf("flushed %+v, want %+v", got, want)
	}
	eventually(t, func() bool { return nodes[1].ReadSlow("s") == 6 },
		"slow batch never applied")
	eventually(t, func() bool { return nodes[1].ReadCausal("c") == 10 },
		"causal write never applied around the slow batches")
	eventually(t, func() bool { return nodes[1].causalApplied.get(0) == 7 },
		"causal clock never covered the full mixed stream")
}

// TestSCOwnerRoundTrip: SC reads and writes serialize through the location's
// owner; a read issued after a write round trip completes must observe it
// from any node.
func TestSCOwnerRoundTrip(t *testing.T) {
	labels := map[string]history.Label{"z": history.LabelSC}
	nodes := labeledCluster(t, 3, labels, BatchConfig{})
	nodes[0].Write("z", 5) // blocking: visible everywhere once it returns
	for i, nd := range nodes {
		if got := nd.ReadSC("z"); got != 5 {
			t.Errorf("node %d: SC read = %d, want 5", i, got)
		}
	}
	nodes[2].WriteSC("z", 9)
	if got := nodes[1].ReadSC("z"); got != 9 {
		t.Errorf("SC read after remote write = %d, want 9", got)
	}
	s := nodes[2].Stats()
	if s.SCWrites == 0 || nodes[1].Stats().SCReads == 0 {
		t.Errorf("SC stats not counted: %+v", s)
	}
	// A plain Write — the call every strand of a process makes — to an SC
	// location goes through the owner, from a node that is not the owner,
	// and counts once.
	w := (SCOwner("z", 3) + 1) % 3
	before := nodes[w].Stats().SCWrites
	nodes[w].Write("z", 12)
	if got := nodes[SCOwner("z", 3)].ReadSC("z"); got != 12 {
		t.Errorf("SC read after a plain write = %d, want 12", got)
	}
	if got := nodes[w].Stats().SCWrites; got != before+1 {
		t.Errorf("plain SC write counted %d times, want 1", got-before)
	}
}

// TestSCAddCommutes: counter ops on an SC location apply at the owner.
func TestSCAddCommutes(t *testing.T) {
	labels := map[string]history.Label{"ctr": history.LabelSC}
	nodes := labeledCluster(t, 2, labels, BatchConfig{})
	nodes[0].Add("ctr", 3)
	nodes[1].Add("ctr", 4)
	if got := nodes[0].ReadSC("ctr"); got != 7 {
		t.Errorf("SC counter = %d, want 7", got)
	}
}

// TestUpdateCodecCarriesLabel pins the label tag on the singleton and batch
// wire frames, and that encodedSize stays byte-exact with the codec.
func TestUpdateCodecCarriesLabel(t *testing.T) {
	u := Update{From: 1, Seq: 4, Op: OpSet, Label: history.LabelSlow, Loc: "s", Value: 8}
	enc, err := transport.EncodePayload(nil, KindUpdate, &u)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(enc) != u.encodedSize() {
		t.Errorf("encodedSize = %d, wire = %d", u.encodedSize(), len(enc))
	}
	dec, err := transport.DecodePayload(KindUpdate, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := dec.(*Update); got.Label != history.LabelSlow {
		t.Errorf("decoded label = %v, want Slow", got.Label)
	}

	b := &UpdateBatch{From: 1, FirstSeq: 4, Updates: []Update{
		{From: 1, Seq: 4, Op: OpSet, Label: history.LabelSlow, Loc: "s", Value: 8},
		{From: 1, Seq: 5, Op: OpSet, Label: history.LabelPRAM, Loc: "p", Value: 9, TS: []uint64{0, 5}},
	}}
	encB, err := transport.EncodePayload(nil, KindUpdateBatch, b)
	if err != nil {
		t.Fatalf("batch encode: %v", err)
	}
	if len(encB) != b.encodedSize() {
		t.Errorf("batch encodedSize = %d, wire = %d", b.encodedSize(), len(encB))
	}
	decB, err := transport.DecodePayload(KindUpdateBatch, encB)
	if err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	got := decB.(*UpdateBatch)
	if got.Updates[0].Label != history.LabelSlow || got.Updates[1].Label != history.LabelPRAM {
		t.Errorf("decoded entry labels = %v/%v, want Slow/PRAM",
			got.Updates[0].Label, got.Updates[1].Label)
	}
}

// TestSlowWriteSteadyStateAllocFree pins the Slow lattice point's write cost:
// like the PRAMOnly floor, a steady-state batched slow write allocates
// nothing — no timestamp snapshot, warm cell, warm ring slot.
func TestSlowWriteSteadyStateAllocFree(t *testing.T) {
	labels := map[string]history.Label{"steady": history.LabelSlow}
	nodes := labeledCluster(t, 2, labels, BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour})
	n := nodes[0]
	n.Write("steady", 1)
	var v int64
	allocs := testing.AllocsPerRun(500, func() {
		v++
		n.Write("steady", v)
	})
	if allocs > 0 {
		t.Errorf("steady-state batched slow Write: %.3f allocs/op, want 0", allocs)
	}
}

// TestReadSlowAllocFree pins the Slow lattice point's read cost: a slow read
// is one atomic map lookup and an atomic load, never an allocation.
func TestReadSlowAllocFree(t *testing.T) {
	labels := map[string]history.Label{"steady": history.LabelSlow}
	nodes := labeledCluster(t, 2, labels, BatchConfig{})
	n := nodes[0]
	n.Write("steady", 1)
	allocs := testing.AllocsPerRun(500, func() {
		_ = n.ReadSlow("steady")
	})
	if allocs > 0 {
		t.Errorf("ReadSlow: %.3f allocs/op, want 0", allocs)
	}
}

// TestSCRoundTripAllocPin bounds the SC access cost on the sim fabric: the
// request/reply boxings, the reply channel, and the waiting-map entry. The
// pin is a budget, not an exact count — it fails if the round trip starts
// allocating per-component state.
func TestSCRoundTripAllocPin(t *testing.T) {
	labels := map[string]history.Label{"z": history.LabelSC}
	nodes := labeledCluster(t, 2, labels, BatchConfig{})
	// Make node 1 a non-owner client (owner is deterministic; pick whichever
	// node does not own "z" to measure the messaging path).
	client := nodes[1]
	if scOwner("z", 2) == 1 {
		client = nodes[0]
	}
	client.WriteSC("z", 1) // warm the owner store and fabric path
	var v int64
	allocs := testing.AllocsPerRun(200, func() {
		v++
		client.WriteSC("z", v)
		_ = client.ReadSC("z")
	})
	const budget = 12.0 // two round trips: 2 payload boxings + channel + map entry each
	if allocs > budget {
		t.Errorf("SC write+read round trip: %.3f allocs/op, want <= %.1f", allocs, budget)
	}
}
