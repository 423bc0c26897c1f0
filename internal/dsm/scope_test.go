package dsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mixedmem/internal/network"
)

// newScopedTrio builds a 3-node system with the given scope, batching
// optional. Callers get the fabric for Hold/Release schedules.
func newScopedTrio(t *testing.T, scope *ScopeMap, batch BatchConfig) (*network.Fabric, []*Node, func()) {
	t.Helper()
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 3, Transport: f, Scope: scope, Batch: batch})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	return f, nodes, func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}
}

// TestScopedCausalTransitiveDelivery is the partial-replication transitivity
// case that vector clocks get wrong: node 0 writes x (causal readers 1 and
// 2), node 1 causally observes x and writes y (causal reader 2 only). Node
// 2's copy of x is held back, so y arrives first — the causal view must not
// apply y until x lands, even though y's sender never wrote x.
func TestScopedCausalTransitiveDelivery(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"x": {1, 2}, "y": {2}},
		CausalReaders: map[string][]int{"x": {1, 2}, "y": {2}},
	}
	f, nodes, cleanup := newScopedTrio(t, scope, BatchConfig{})
	defer cleanup()

	if err := f.Hold(0, 2); err != nil {
		t.Fatalf("hold: %v", err)
	}
	nodes[0].Write("x", 1)
	nodes[1].AwaitCausal("x", 1)
	nodes[1].Write("y", 1)

	// y is in flight to node 2; x is held. The PRAM view applies y in
	// receive order, but the causal view must park it.
	eventually(t, func() bool { return nodes[2].ReadPRAM("y") == 1 }, "n2 never received y")
	if got := nodes[2].Snapshot(true)["x"]; got != 0 {
		t.Fatalf("x visible causally before release: %d", got)
	}
	if got := nodes[2].Snapshot(true)["y"]; got != 0 {
		t.Fatalf("y applied causally before its dependency x: %d", got)
	}

	if err := f.Release(0, 2); err != nil {
		t.Fatalf("release: %v", err)
	}
	nodes[2].AwaitCausal("y", 1)
	// AwaitCausal returning means every causal predecessor of y — including
	// x, known only transitively through node 1 — is applied.
	if got := nodes[2].Snapshot(true)["x"]; got != 1 {
		t.Fatalf("causal x = %d after awaiting y, want 1", got)
	}
}

// TestScopedCausalSequenceHoles drives per-sender sequence holes: node 0
// alternates writes to locations scoped to different single readers, so each
// destination sees a gappy subsequence of node 0's sequence numbers and must
// still apply every addressed update.
func TestScopedCausalSequenceHoles(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"a": {1}, "b": {2}},
		CausalReaders: map[string][]int{"a": {1}, "b": {2}},
	}
	_, nodes, cleanup := newScopedTrio(t, scope, BatchConfig{})
	defer cleanup()

	for v := int64(1); v <= 5; v++ {
		nodes[0].Write("a", v) // odd sequence numbers for node 1
		nodes[0].Write("b", v) // even sequence numbers for node 2
	}
	nodes[1].AwaitCausal("a", 5)
	nodes[2].AwaitCausal("b", 5)
	if got := nodes[2].ReadPRAM("a"); got != 0 {
		t.Fatalf("a leaked to node 2: %d", got)
	}
	// Each destination waits for the last sequence number node 0 sent it,
	// which it settles whatever holes lie below.
	sent := nodes[0].SentSeqs(nil)
	done := make(chan struct{})
	go func() {
		nodes[1].WaitCausalApplied([]uint64{sent[1], 0, 0})
		nodes[2].WaitCausalApplied([]uint64{sent[2], 0, 0})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitCausalApplied hung on per-sender sequence holes")
	}
}

// TestScopedMixedElidedAndCausal mixes both registration kinds at one
// destination: node 1 is a causal reader of c and a plain (PRAM) reader of
// p. Elided updates must not disturb the causal stream they sit between.
func TestScopedMixedElidedAndCausal(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"c": {1}, "p": {1}},
		CausalReaders: map[string][]int{"c": {1}},
	}
	_, nodes, cleanup := newScopedTrio(t, scope, BatchConfig{})
	defer cleanup()

	nodes[0].Write("c", 1) // causal, seq 1
	nodes[0].Write("p", 2) // elided, seq 2
	nodes[0].Write("c", 3) // causal, seq 3: must not wait for the elided seq 2
	nodes[1].AwaitCausal("c", 3)
	if got := nodes[1].ReadPRAM("p"); got != 2 {
		t.Fatalf("p = %d, want 2", got)
	}
	// The elided update settles in its sender's order like the causal ones,
	// so the last sequence number node 0 sent node 1 settles.
	min := []uint64{nodes[0].SentSeqs(nil)[1], 0, 0}
	done := make(chan struct{})
	go func() {
		nodes[1].WaitCausalApplied(min)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitCausalApplied did not settle past the elided update")
	}
}

// TestScopedCausalBatched runs the transitive scenario with the outbox on:
// causal batches must carry batch-level dependency metadata and apply
// atomically, and an elided write between causal ones rides in the same batch
// as a hole in its causal group.
func TestScopedCausalBatched(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"x": {1, 2}, "y": {2}, "p": {2}},
		CausalReaders: map[string][]int{"x": {1, 2}, "y": {2}},
	}
	batch := BatchConfig{Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour}
	f, nodes, cleanup := newScopedTrio(t, scope, batch)
	defer cleanup()

	if err := f.Hold(0, 2); err != nil {
		t.Fatalf("hold: %v", err)
	}
	nodes[0].Write("x", 1)
	nodes[0].Write("x", 2)
	nodes[0].Write("p", 7) // elided at node 2: a hole in the batch's causal group
	nodes[0].Write("x", 3)
	nodes[0].FlushUpdates()
	nodes[1].AwaitCausal("x", 3)
	nodes[1].Write("y", 1)
	nodes[1].FlushUpdates()

	eventually(t, func() bool { return nodes[2].ReadPRAM("y") == 1 }, "n2 never received y")
	if got := nodes[2].Snapshot(true)["y"]; got != 0 {
		t.Fatalf("y applied causally before x batch: %d", got)
	}
	if err := f.Release(0, 2); err != nil {
		t.Fatalf("release: %v", err)
	}
	nodes[2].AwaitCausal("y", 1)
	if got := nodes[2].Snapshot(true)["x"]; got != 3 {
		t.Fatalf("causal x = %d after awaiting y, want 3", got)
	}
	if got := nodes[2].ReadPRAM("p"); got != 7 {
		t.Fatalf("p = %d, want 7", got)
	}
}

// TestScopedCausalUnlistedLocationBroadcasts checks the fallback: a location
// absent from the scope map broadcasts with causal metadata, and stays
// causally ordered with scoped locations.
func TestScopedCausalUnlistedLocationBroadcasts(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"narrow": {1}},
		CausalReaders: map[string][]int{"narrow": {1}},
	}
	_, nodes, cleanup := newScopedTrio(t, scope, BatchConfig{})
	defer cleanup()

	nodes[0].Write("narrow", 1) // seq 1, node 1 only
	nodes[0].Write("wide", 2)   // seq 2, broadcast fallback
	nodes[1].AwaitCausal("wide", 2)
	if got := nodes[1].Snapshot(true)["narrow"]; got != 1 {
		t.Fatalf("narrow = %d in node 1's causal view, want 1", got)
	}
	nodes[2].AwaitCausal("wide", 2)
	if got := nodes[2].ReadPRAM("narrow"); got != 0 {
		t.Fatalf("narrow leaked to node 2: %d", got)
	}
}

// refCompile is ScopeMap.compile as it was, two maps per location: the
// reference the scratch-reusing version must agree with entry for entry.
func refCompile(s *ScopeMap, id int) map[string]scopeEntry {
	targets := make(map[string]scopeEntry, len(s.Readers))
	for loc, readers := range s.Readers {
		inCausal := make(map[int]bool)
		for _, p := range s.CausalReaders[loc] {
			inCausal[p] = true
		}
		var ent scopeEntry
		seen := make(map[int]bool, len(readers))
		for _, p := range readers {
			if p == id || seen[p] {
				continue
			}
			seen[p] = true
			if inCausal[p] {
				ent.causal = append(ent.causal, p)
			} else {
				ent.elided = append(ent.elided, p)
			}
		}
		sort.Ints(ent.causal)
		sort.Ints(ent.elided)
		targets[loc] = ent
	}
	return targets
}

// TestCompileMatchesReference: compile's output does not depend on how it
// deduplicates — on random valid maps (duplicate readers, the node itself
// among them, causal subsets with duplicates, empty lists) every node's
// compiled lists equal the reference's, nil where the reference's are nil.
func TestCompileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		s := &ScopeMap{Readers: map[string][]int{}, CausalReaders: map[string][]int{}}
		for l := r.Intn(40); l >= 0; l-- {
			loc := fmt.Sprintf("l%d", l)
			readers := make([]int, r.Intn(2*n+1))
			for i := range readers {
				readers[i] = r.Intn(n)
			}
			s.Readers[loc] = readers
			if len(readers) > 0 && r.Intn(3) > 0 {
				causal := make([]int, r.Intn(len(readers)+1))
				for i := range causal {
					causal[i] = readers[r.Intn(len(readers))]
				}
				s.CausalReaders[loc] = causal
			}
		}
		if err := s.Validate(n, false); err != nil {
			t.Fatalf("trial %d: generated an invalid map: %v", trial, err)
		}
		for id := 0; id < n; id++ {
			if got, want := s.compile(id, n), refCompile(s, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, node %d of %d: compile = %v, reference = %v", trial, id, n, got, want)
			}
		}
	}
}
