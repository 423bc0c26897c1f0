package dsm

import (
	"fmt"
	"testing"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
)

// Batches that mix obligations: an outbox batch closes only on its
// thresholds, a synchronization boundary, the linger timer or the obMatrix
// epoch rule, so one frame can carry obNone entries between obMatrix ones
// (under a scope) or Slow writes beside timestamped ones (under broadcast).
// The receiver PRAM-applies the whole batch and delivers the causal entries
// as one group with holes. Each regression below holds one sim channel so the
// group parks, and checks what the holes must and must not do.

// manualBatch never flushes on its own: only FlushUpdates closes a batch.
var manualBatch = BatchConfig{Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour}

// within fails the test unless f returns within five seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: stalled", what)
	}
}

// sentTo returns, per node, the last sequence number it sent node j, flushing
// its outbox: the vector j's waits reach once all of it arrived or settled.
func sentTo(nodes []*Node, j int) []uint64 {
	min := make([]uint64, len(nodes))
	for i, nd := range nodes {
		min[i] = nd.SentSeqs(nil)[j]
	}
	return min
}

// parkBehindHeldWrite holds node 1's channel to node 2, has node 1 write d
// and node 0 observe it causally: node 0's next causal copy to node 2 then
// depends on a write node 2 does not have, and parks there.
func parkBehindHeldWrite(t *testing.T, f *network.Fabric, nodes []*Node) {
	t.Helper()
	if err := f.Hold(1, 2); err != nil {
		t.Fatal(err)
	}
	nodes[1].Write("d", 1)
	nodes[1].FlushUpdates()
	nodes[0].AwaitCausal("d", 1)
}

// TestMixedBatchElidedVisibleWhileCausalParked: node 0's batch to node 2 is
// [p elided, c causal, q elided], and c depends on a write held from node 2.
// The elided entries are in node 2's PRAM view while c is parked, and settle
// with c's group, in their sender's order; they never anchor the fence, so a
// causal read after PRAM-reading them does not wait for the group; and they
// never enter the causal view.
func TestMixedBatchElidedVisibleWhileCausalParked(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"d": {0, 2}, "c": {2}, "p": {2}, "q": {2}},
		CausalReaders: map[string][]int{"d": {0, 2}, "c": {2}},
	}
	f, nodes, cleanup := newScopedTrio(t, scope, manualBatch)
	defer cleanup()
	parkBehindHeldWrite(t, f, nodes)
	nodes[0].Write("p", 10)
	nodes[0].Write("c", 20)
	nodes[0].Write("q", 30)
	nodes[0].FlushUpdates()

	eventually(t, func() bool { return nodes[2].Stats().PendingGroups == 1 }, "node 0's batch never parked at node 2")
	if p, q := nodes[2].ReadPRAM("p"), nodes[2].ReadPRAM("q"); p != 10 || q != 30 {
		t.Fatalf("PRAM p, q = %d, %d while c is parked, want 10, 30", p, q)
	}
	if got := nodes[2].causalSnapshotValue("c"); got != 0 {
		t.Fatalf("c = %d entered the causal view before the held d", got)
	}
	if got := nodes[2].causalApplied.get(0); got != 0 {
		t.Fatalf("causalApplied[0] = %d while c is parked, want 0: the elided entries settle with their group", got)
	}
	within(t, "causal read after PRAM-reading the elided entries", func() {
		if got := nodes[2].ReadCausal("c"); got != 0 {
			t.Errorf("causal c = %d before the held d", got)
		}
	})

	if err := f.Release(1, 2); err != nil {
		t.Fatal(err)
	}
	within(t, "release of the parked group", func() { nodes[2].WaitCausalApplied([]uint64{3, 1, 0}) })
	if got := nodes[2].ReadCausal("c"); got != 20 {
		t.Fatalf("causal c = %d, want 20", got)
	}
	for _, loc := range []string{"p", "q"} {
		if got := nodes[2].causalSnapshotValue(loc); got != 0 {
			t.Errorf("elided %s = %d reached the causal view", loc, got)
		}
	}
	if s := f.Stats(); s.PerKind[KindUpdateBatch] != 1 {
		t.Errorf("%d batch frames, want the 1 mixed batch", s.PerKind[KindUpdateBatch])
	}
}

// TestMixedBatchEndingElidedDoesNotStall: node 0's first batch to node 1 is
// [c causal, p elided] and ends in the elided entry; the second, [q elided,
// e causal], starts with one. Each group settles at its latest entry, elided
// or not, and the second must follow the first into the causal view without
// waiting for anything the elided entries did or did not name.
func TestMixedBatchEndingElidedDoesNotStall(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"c": {1}, "e": {1}, "p": {1}, "q": {1}},
		CausalReaders: map[string][]int{"c": {1}, "e": {1}},
	}
	_, nodes, cleanup := newScopedTrio(t, scope, manualBatch)
	defer cleanup()
	nodes[0].Write("c", 1)
	nodes[0].Write("p", 2)
	nodes[0].FlushUpdates()
	nodes[0].Write("q", 3)
	nodes[0].Write("e", 4)
	nodes[0].FlushUpdates()

	within(t, "the batch chained after one ending in an elided entry", func() {
		nodes[1].WaitCausalApplied([]uint64{4, 0, 0})
	})
	if c, e := nodes[1].ReadCausal("c"), nodes[1].ReadCausal("e"); c != 1 || e != 4 {
		t.Fatalf("causal c, e = %d, %d, want 1, 4", c, e)
	}
	if got := nodes[1].causalApplied.get(0); got != 4 {
		t.Fatalf("causalApplied[0] = %d, want 4 (e)", got)
	}
	if s := nodes[1].Stats(); s.PendingGroupsMax != 0 {
		t.Fatalf("PendingGroupsMax = %d: a group parked although nothing was held", s.PendingGroupsMax)
	}
}

// TestMixedBatchCoalescedCountsExact: c=1 p=1 c=2 p=2 c=3 to node 2 (node 0's
// sequence numbers 1 to 5) coalesce to [c=3, p=2]. recvd reaches 5, the
// surviving latest entry, on arrival; causalApplied stays at 0 while the group
// is parked, its surviving elided entry included, and reaches exactly 5 when
// the group settles.
func TestMixedBatchCoalescedCountsExact(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"d": {0, 2}, "c": {2}, "p": {2}},
		CausalReaders: map[string][]int{"d": {0, 2}, "c": {2}},
	}
	f, nodes, cleanup := newScopedTrio(t, scope, manualBatch)
	defer cleanup()
	parkBehindHeldWrite(t, f, nodes)
	for v := int64(1); v <= 3; v++ {
		nodes[0].Write("c", v)
		if v < 3 {
			nodes[0].Write("p", v)
		}
	}
	nodes[0].FlushUpdates()

	eventually(t, func() bool { return nodes[2].Stats().PendingGroups == 1 }, "node 0's batch never parked at node 2")
	if got := nodes[2].ReceivedSeqs(nil)[0]; got != 5 {
		t.Fatalf("recvd[0] = %d on arrival, want 5", got)
	}
	if got := nodes[2].causalApplied.get(0); got != 0 {
		t.Fatalf("causalApplied[0] = %d while parked, want 0: the elided entry settles with its group", got)
	}
	if c, p := nodes[2].ReadPRAM("c"), nodes[2].ReadPRAM("p"); c != 3 || p != 2 {
		t.Fatalf("PRAM c, p = %d, %d, want 3, 2", c, p)
	}

	if err := f.Release(1, 2); err != nil {
		t.Fatal(err)
	}
	within(t, "release of the coalesced group", func() { nodes[2].WaitCausalApplied([]uint64{5, 1, 0}) })
	if got := nodes[2].causalApplied.get(0); got != 5 {
		t.Fatalf("causalApplied[0] = %d after release, want exactly 5", got)
	}
	if got := nodes[2].ReadCausal("c"); got != 3 {
		t.Fatalf("causal c = %d, want 3", got)
	}
}

// TestMixedBroadcastBatchSlowAndCausal: under broadcast, node 0's batch to
// node 2 is [c causal, s Slow] and ends in the Slow entry, which carries no
// timestamp. The group waits on c's timestamp — for the held d — and, once
// released, both entries enter the causal view and the sender's clock covers
// s; neither is taken for malformed metadata.
func TestMixedBroadcastBatchSlowAndCausal(t *testing.T) {
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	labels := map[string]history.Label{"s": history.LabelSlow}
	nodes := make([]*Node, 3)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{ID: i, N: 3, Transport: f, Labels: labels, Batch: manualBatch}); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	parkBehindHeldWrite(t, f, nodes)
	nodes[0].Write("c", 5)
	nodes[0].Write("s", 6)
	nodes[0].FlushUpdates()

	eventually(t, func() bool { return nodes[2].Stats().PendingGroups == 1 }, "node 0's batch never parked at node 2")
	if got := nodes[2].ReadPRAM("s"); got != 6 {
		t.Fatalf("PRAM s = %d, want 6", got)
	}
	if c, s := nodes[2].causalSnapshotValue("c"), nodes[2].causalSnapshotValue("s"); c != 0 || s != 0 {
		t.Fatalf("causal c, s = %d, %d before the held d", c, s)
	}

	if err := f.Release(1, 2); err != nil {
		t.Fatal(err)
	}
	within(t, "release of the mixed broadcast group", func() { nodes[2].WaitCausalApplied([]uint64{2, 1, 0}) })
	if c, s := nodes[2].causalSnapshotValue("c"), nodes[2].causalSnapshotValue("s"); c != 5 || s != 6 {
		t.Fatalf("causal c, s = %d, %d, want 5, 6", c, s)
	}
	if got := nodes[2].causalApplied.get(0); got != 2 {
		t.Fatalf("causalApplied[0] = %d, want 2 (s)", got)
	}
	if got := nodes[2].Stats().MalformedUpdates; got != 0 {
		t.Fatalf("MalformedUpdates = %d: the Slow entry's missing timestamp was read as the group's", got)
	}
	if s := f.Stats(); s.PerKind[KindUpdateBatch] != 2 {
		t.Errorf("%d batch frames, want node 0's mixed batch to each peer", s.PerKind[KindUpdateBatch])
	}
}

// TestHybridBatchFillsToThreshold pins the outbox's gain on the hybrid stream:
// writes alternating between a location node 1 reads causally (obMatrix) and
// one it only PRAM-reads (obNone), with no synchronization boundary until the
// end, ship ⌈writes/MaxUpdates⌉ frames — every one but the last closed by the
// threshold — not one per obligation change.
func TestHybridBatchFillsToThreshold(t *testing.T) {
	const writes, maxUpdates = 100, 8
	scope := &ScopeMap{Readers: map[string][]int{}, CausalReaders: map[string][]int{}}
	locs := make([]string, writes)
	for i := range locs {
		locs[i] = fmt.Sprintf("p%d", i)
		if i%2 == 0 {
			locs[i] = fmt.Sprintf("c%d", i)
			scope.CausalReaders[locs[i]] = []int{1}
		}
		scope.Readers[locs[i]] = []int{1}
	}
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	batch := BatchConfig{Enabled: true, MaxUpdates: maxUpdates, MaxBytes: 1 << 30, Linger: time.Hour}
	nodes := make([]*Node, 2)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{ID: i, N: 2, Transport: f, Scope: scope, Batch: batch}); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i, loc := range locs {
		nodes[0].Write(loc, int64(i+1))
	}
	nodes[0].FlushUpdates()
	within(t, "the hybrid stream", func() { nodes[1].WaitCausalApplied([]uint64{writes, 0}) })
	for i, loc := range locs {
		if got := nodes[1].ReadPRAM(loc); got != int64(i+1) {
			t.Fatalf("PRAM %s = %d, want %d", loc, got, i+1)
		}
	}

	const frames = (writes + maxUpdates - 1) / maxUpdates
	if s := f.Stats(); s.PerKind[KindUpdateBatch]+s.PerKind[KindUpdate] != frames {
		t.Errorf("%d batch + %d update frames for %d alternating writes, want %d",
			s.PerKind[KindUpdateBatch], s.PerKind[KindUpdate], writes, frames)
	}
	want := FlushesByCause{
		Threshold: FlushCount{Frames: writes / maxUpdates, Entries: writes / maxUpdates * maxUpdates},
		Sync:      FlushCount{Frames: 1, Entries: writes % maxUpdates},
	}
	if got := nodes[0].Stats().Flushes; got != want {
		t.Errorf("flushes by cause = %+v, want %+v", got, want)
	}
}

// TestElidedGroupWaitsForParkedHead: under a scope, node 0's causal write c to
// node 2 depends on a write held from node 2 and parks; its elided write p
// follows unbatched, a group of its own. p reaches the PRAM view on arrival but
// settles only behind c, in its sender's order, so a wait for everything node
// 0 sent node 2 must not pass until c settles, and the sender's entry of
// causalApplied never runs ahead of c.
func TestElidedGroupWaitsForParkedHead(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"d": {0, 2}, "c": {2}, "p": {2}},
		CausalReaders: map[string][]int{"d": {0, 2}, "c": {2}},
	}
	f, nodes, cleanup := newScopedTrio(t, scope, BatchConfig{})
	defer cleanup()
	parkBehindHeldWrite(t, f, nodes)
	nodes[0].Write("c", 1)
	nodes[0].Write("p", 2)
	r := nodes[2]
	eventually(t, func() bool { return r.Stats().PendingGroups == 2 }, "c and p never parked at node 2")
	if got := r.ReadPRAM("p"); got != 2 {
		t.Fatalf("PRAM p = %d while c is parked, want 2", got)
	}
	min := []uint64{nodes[0].SentSeqs(nil)[2], 0, 0}
	passed := make(chan struct{})
	go func() {
		r.WaitCausalApplied(min)
		close(passed)
	}()
	r.clockMu.Lock()
	early, settled := r.reachedLocked(min, true), r.causalApplied.get(0)
	r.clockMu.Unlock()
	if early || settled != 0 {
		t.Fatalf("causalApplied[0] = %d while c is parked: p settled past its parked head", settled)
	}
	select {
	case <-passed:
		t.Fatal("WaitCausalApplied passed while c was parked")
	default:
	}

	if err := f.Release(1, 2); err != nil {
		t.Fatal(err)
	}
	within(t, "the wait behind the parked head", func() { <-passed })
	if got := r.causalApplied.get(0); got != min[0] {
		t.Fatalf("causalApplied[0] = %d after release, want %d", got, min[0])
	}
	if c, p := r.ReadCausal("c"), r.causalSnapshotValue("p"); c != 1 || p != 0 {
		t.Fatalf("causal c, p = %d, %d, want 1, 0: the elided write entered the causal view", c, p)
	}
}
