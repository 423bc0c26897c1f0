package dsm

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
)

// TestBroadcastMalformedTimestampDoesNotStall is the full-broadcast twin of
// TestScopedCausalMalformedDepsDoesNotStall: an update (or batch) whose vector
// timestamp has the wrong dimension can never meet the vector condition, so
// it is held out of the causal view — PRAM view only, settled in its sender's
// order, visible in Stats — instead of parking forever with no diagnostic.
// It still takes its place in the sender's order: the well-formed update that
// follows it must reach the causal view. The scoped case checks the same for
// a dependency matrix of the wrong dimension in a stream with holes. The
// arrival check holds every group, single update or batch, scoped or not, to
// its sender's order: a batch with an entry before its FirstSeq, outside the
// run it covers, must not move the sender's sequence numbers, an update that skips
// ahead of a broadcast sender's run moves them to itself and no further, and
// a stale or duplicate sequence number, under either, moves them not at all —
// each is malformed and never reaches the causal view.
func TestBroadcastMalformedTimestampDoesNotStall(t *testing.T) {
	msg := func(payload any) network.Message {
		switch p := payload.(type) {
		case *Update:
			return network.Message{From: 0, To: 1, Kind: KindUpdate, Payload: p, Size: p.encodedSize()}
		case *UpdateBatch:
			return network.Message{From: 0, To: 1, Kind: KindUpdateBatch, Payload: p, Size: p.encodedSize()}
		}
		panic("unreachable")
	}
	scope := &ScopeMap{
		Readers:       map[string][]int{"a": {0, 1}, "b": {0, 1}},
		CausalReaders: map[string][]int{"a": {0, 1}, "b": {0, 1}},
	}
	// pre is a well-formed first write of a, value 3, that the malformed
	// update follows; b is the well-formed successor's location.
	pre := func(seq uint64, ts []uint64, deps Matrix) *Update {
		return &Update{From: 0, Seq: seq, Op: OpSet, Loc: "a", Defines: true, Value: 3, TS: ts, Deps: deps}
	}
	again := func(seq uint64, ts []uint64, deps Matrix) *Update {
		return &Update{From: 0, Seq: seq, Op: OpSet, Value: 7, TS: ts, Deps: deps}
	}
	b := func(seq uint64, ts []uint64, deps Matrix) *Update {
		return &Update{From: 0, Seq: seq, Op: OpSet, Loc: "b", Ordinal: 1, Defines: true, Value: 1, TS: ts, Deps: deps}
	}
	paths := []struct {
		name      string
		scope     *ScopeMap
		pre       *Update // sent first when set
		bad, good any
		settled   uint64 // the sender's causal clock entry after bad
		pram      int64  // a after bad, in the PRAM view
		causal    int64  // a after bad, in the causal view
		clock     uint64 // the sender's causal clock entry at the end
	}{
		{"update", nil, nil,
			&Update{From: 0, Seq: 1, Op: OpSet, Loc: "a", Defines: true, Value: 7, TS: []uint64{1, 0, 0, 0, 0}},
			b(2, []uint64{2, 0}, nil), 1, 7, 0, 2},
		{"batch", nil, nil,
			&UpdateBatch{From: 0, FirstSeq: 1, Updates: []Update{
				// The latest entry's timestamp is the batch's; it sits first.
				{From: 0, Seq: 1, Op: OpSet, Loc: "a", Defines: true, Value: 9, TS: []uint64{1, 0, 0, 0, 0}},
			}},
			&UpdateBatch{From: 0, FirstSeq: 2, Updates: []Update{*b(2, []uint64{2, 0}, nil)}}, 1, 9, 0, 2},
		{"batch-outside-its-run", nil, pre(1, []uint64{1, 0}, nil),
			// The run is FirstSeq through the latest entry; this entry
			// lies before it.
			&UpdateBatch{From: 0, FirstSeq: 2, Updates: []Update{*again(1, []uint64{1, 0}, nil)}},
			&UpdateBatch{From: 0, FirstSeq: 2, Updates: []Update{*b(2, []uint64{2, 0}, nil)}}, 1, 7, 3, 2},
		{"update-outside-its-run", nil, nil,
			&Update{From: 0, Seq: 9, Op: OpSet, Loc: "a", Defines: true, Value: 6, TS: []uint64{9, 0}},
			b(10, []uint64{10, 0}, nil), 9, 6, 0, 10},
		{"duplicate-seq", nil, pre(1, []uint64{1, 0}, nil),
			again(1, []uint64{1, 0}, nil),
			b(2, []uint64{2, 0}, nil), 1, 7, 3, 2},
		{"scoped-matrix", scope, nil,
			// Seqs 1 and 3 went elsewhere: the channel, not the sequence
			// number, orders this destination's stream.
			&Update{From: 0, Seq: 2, Op: OpSet, Loc: "a", Defines: true, Value: 5, Deps: NewMatrix(5)},
			b(4, nil, NewMatrix(2)), 2, 5, 0, 4},
		{"scoped-update-outside-its-run", scope, pre(4, nil, NewMatrix(2)),
			again(2, nil, NewMatrix(2)),
			b(5, nil, NewMatrix(2)), 4, 7, 3, 5},
		{"scoped-duplicate-seq", scope, pre(4, nil, NewMatrix(2)),
			again(4, nil, NewMatrix(2)),
			b(5, nil, NewMatrix(2)), 4, 7, 3, 5},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			f, err := network.New(network.Config{Nodes: 2})
			if err != nil {
				t.Fatalf("network.New: %v", err)
			}
			r, err := NewNode(Config{ID: 1, N: 2, Transport: f, Scope: p.scope})
			if err != nil {
				t.Fatalf("NewNode: %v", err)
			}
			defer func() {
				f.Close()
				r.Close()
			}()
			wait := func(min uint64, what string) {
				t.Helper()
				within(t, "WaitCausalApplied on "+what, func() { r.WaitCausalApplied([]uint64{min, 0}) })
			}
			if p.pre != nil {
				if err := f.Send(msg(p.pre)); err != nil {
					t.Fatal(err)
				}
				wait(p.pre.Seq, "the update before a malformed one")
			}
			if err := f.Send(msg(p.bad)); err != nil {
				t.Fatal(err)
			}
			// The malformed update is the sender's last; once the PRAM view
			// has it, it has settled too.
			eventually(t, func() bool { return r.ReadPRAM("a") == p.pram }, "the malformed update never reached the PRAM view")
			wait(p.settled, "a malformed update")
			// No fence anchor was stored, so the causal read neither stalls
			// nor sees the value.
			if got := r.ReadCausal("a"); got != p.causal {
				t.Fatalf("causal a = %d, want %d: the malformed update reached the causal view", got, p.causal)
			}
			if got := r.causalApplied.get(0); got != p.settled {
				t.Fatalf("sender's causal clock entry = %d after the malformed update, want %d", got, p.settled)
			}
			if err := f.Send(msg(p.good)); err != nil {
				t.Fatal(err)
			}
			wait(p.clock, "the well-formed successor of a malformed update")
			if got := r.ReadCausal("b"); got != 1 {
				t.Fatalf("causal b = %d, want 1: the successor never reached the causal view", got)
			}
			if got, rc := r.causalApplied.get(0), r.ReceivedSeqs(nil)[0]; got != p.clock || rc != p.clock {
				t.Fatalf("sender's causal clock entry = %d, received %d, want %d", got, rc, p.clock)
			}
			s := r.Stats()
			if s.MalformedUpdates != 1 || s.PendingGroups != 0 || s.PendingGroupsMax != 0 {
				t.Fatalf("MalformedUpdates=%d PendingGroups=%d PendingGroupsMax=%d, want 1 0 0",
					s.MalformedUpdates, s.PendingGroups, s.PendingGroupsMax)
			}
		})
	}
}

// TestSenderIsTheChannel: a received payload's sender is the channel it came
// on, not the sender field it carries. An update or batch on channel 1→0 that
// names process 2 is held malformed in process 1's order — counted, in
// neither 2's reference table nor 2's sequence numbers, and out of the causal
// view — so process 2's genuine first write still settles. An SC request that
// names another process is answered on the channel it arrived on.
func TestSenderIsTheChannel(t *testing.T) {
	spoofs := []struct {
		name    string
		kind    string
		payload any
	}{
		{"update", KindUpdate, &Update{From: 2, Seq: 1, Op: OpSet, Loc: "a", Defines: true, Value: 5, TS: []uint64{0, 0, 1}}},
		{"batch", KindUpdateBatch, &UpdateBatch{From: 2, FirstSeq: 1, Updates: []Update{
			{From: 2, Seq: 1, Op: OpSet, Loc: "a", Defines: true, Value: 5, TS: []uint64{0, 0, 1}},
		}}},
	}
	for _, sp := range spoofs {
		t.Run(sp.name, func(t *testing.T) {
			f, err := network.New(network.Config{Nodes: 3})
			if err != nil {
				t.Fatalf("network.New: %v", err)
			}
			r, err := NewNode(Config{ID: 0, N: 3, Transport: f})
			if err != nil {
				t.Fatalf("NewNode: %v", err)
			}
			defer func() {
				f.Close()
				r.Close()
			}()
			if err := f.Send(network.Message{From: 1, To: 0, Kind: sp.kind, Payload: sp.payload}); err != nil {
				t.Fatal(err)
			}
			// Each reaches the PRAM view, malformed or not, once it has arrived.
			eventually(t, func() bool { return r.ReadPRAM("a") == 5 }, "the spoofed update never arrived")
			if got := r.ReceivedSeqs(nil); got[1] != 1 || got[2] != 0 {
				t.Fatalf("received %v after the spoof, want it filed under process 1, not 2", got)
			}
			genuine := &Update{From: 2, Seq: 1, Op: OpSet, Loc: "b", Defines: true, Value: 1, TS: []uint64{0, 0, 1}}
			if err := f.Send(network.Message{From: 2, To: 0, Kind: KindUpdate, Payload: genuine}); err != nil {
				t.Fatal(err)
			}
			eventually(t, func() bool { return r.ReadPRAM("b") == 1 }, "process 2's first write never arrived")
			if got := r.ReadCausal("b"); got != 1 {
				t.Fatalf("causal b = %d, want 1: process 2's first write was held as a repeat", got)
			}
			if got := r.ReadCausal("a"); got != 0 {
				t.Fatalf("causal a = %d, want 0: the spoofed update reached the causal view", got)
			}
			if got := r.Stats().MalformedUpdates; got != 1 {
				t.Fatalf("MalformedUpdates = %d, want 1: the spoof", got)
			}
		})
	}
	t.Run("sc-request", func(t *testing.T) {
		f, err := network.New(network.Config{Nodes: 3})
		if err != nil {
			t.Fatalf("network.New: %v", err)
		}
		r, err := NewNode(Config{ID: 0, N: 3, Transport: f})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer func() {
			f.Close()
			r.Close()
		}()
		req := SCRequest{ReqID: 7, From: 2, Op: OpSet, Loc: "s", Value: 4}
		if err := f.Send(network.Message{From: 1, To: 0, Kind: KindSCRequest, Payload: req}); err != nil {
			t.Fatal(err)
		}
		var m network.Message
		within(t, "the reply on the request's channel", func() { m, _ = f.Recv(1) })
		if rep, ok := m.Payload.(SCReply); m.Kind != KindSCReply || !ok || rep.ReqID != 7 || rep.Value != 4 {
			t.Fatalf("process 1 received %s %+v, want the reply to request 7 with value 4", m.Kind, m.Payload)
		}
	})
}

// TestParkedSetDoesNotClobberLaterLocalWrite: an OpSet that is in the PRAM
// view but still parked for the causal view precedes, by the writer's own
// dependency clock, every write this process issues afterwards. When its
// dependencies arrive it must not overwrite such a later local write of the
// same location in the causal view.
func TestParkedSetDoesNotClobberLaterLocalWrite(t *testing.T) {
	nodes, f := batchedCluster(t, 3, BatchConfig{})
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("a", 1)
	eventually(t, func() bool { return nodes[1].ReadCausal("a") == 1 }, "node 1 never saw a")
	nodes[1].Write("x", 1) // depends on a=1, which node 2 has not received
	nodes[1].Add("k", 3)   // a parked add still applies exactly once
	nodes[2].WaitReceived([]uint64{0, 2, 0})
	if got := nodes[2].ReadPRAM("x"); got != 1 {
		t.Fatalf("PRAM x = %d, want 1", got)
	}
	if s := nodes[2].Stats(); s.PendingGroups != 2 {
		t.Fatalf("PendingGroups = %d, want x=1 and k+=3 parked behind the held a=1", s.PendingGroups)
	}
	nodes[2].Write("x", 2) // stamped after x=1: every other replica orders it last
	nodes[2].Add("k", 4)
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[2].WaitCausalApplied([]uint64{1, 2, 0})
	if got := nodes[2].ReadCausal("x"); got != 2 {
		t.Errorf("causal x = %d, want 2: the released x=1 clobbered the later local write", got)
	}
	if got := nodes[2].ReadPRAM("x"); got != 2 {
		t.Errorf("PRAM x = %d, want 2", got)
	}
	if got := nodes[2].ReadCausal("k"); got != 7 {
		t.Errorf("causal k = %d, want 7", got)
	}
	// The replicas agree: node 0 applies x=1 before x=2 by timestamp.
	nodes[0].WaitCausalApplied([]uint64{0, 2, 2})
	if got := nodes[0].ReadCausal("x"); got != 2 {
		t.Errorf("node 0 causal x = %d, want 2", got)
	}
}

// TestOwnWriteAfterObservingParkedGroupLandsLast: node 2 PRAM-reads a value
// whose group is parked behind a held predecessor that writes the same
// location, then overwrites it. The own write causally follows both, so once
// the predecessor arrives — after the own write was issued — node 2's causal
// view, like every other replica's, must end with the own write.
func TestOwnWriteAfterObservingParkedGroupLandsLast(t *testing.T) {
	nodes, f := batchedCluster(t, 3, BatchConfig{})
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("x", 1)
	nodes[1].WaitCausalApplied([]uint64{1, 0, 0})
	nodes[1].Write("x", 2) // causally after x=1, which node 2 has not received
	nodes[2].WaitReceived([]uint64{0, 1, 0})
	if got := nodes[2].ReadPRAM("x"); got != 2 {
		t.Fatalf("PRAM x = %d, want 2", got)
	}
	nodes[2].Write("x", 3) // causally after x=2, hence after x=1
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		nd.WaitCausalApplied([]uint64{1, 1, 1})
		if got := nd.ReadCausal("x"); got != 3 {
			t.Errorf("node %d: causal x = %d, want 3: an earlier write landed over node 2's", i, got)
		}
	}
}

// TestScopedOwnWriteCarriesObservedParkedDeps is the scoped variant: node 2
// PRAM-reads x=2, whose group is parked behind the held x=1, then writes y,
// which only node 0 reads. y's dependency matrix must name x=2 at node 0
// although x=2 has not settled at node 2, so node 0 — whose copy of x=2 is
// held — must not let y into its causal view first.
func TestScopedOwnWriteCarriesObservedParkedDeps(t *testing.T) {
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{
		Readers:       map[string][]int{"x": {0, 1, 2}, "y": {0}},
		CausalReaders: map[string][]int{"x": {0, 1, 2}, "y": {0}},
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{ID: i, N: 3, Transport: f, Scope: scope}); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for _, p := range [][2]int{{0, 2}, {1, 0}} {
		if err := f.Hold(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].Write("x", 1)
	nodes[1].WaitCausalApplied([]uint64{1, 0, 0})
	nodes[1].Write("x", 2)
	nodes[2].WaitReceived([]uint64{0, 1, 0})
	if got := nodes[2].ReadPRAM("x"); got != 2 {
		t.Fatalf("node 2 PRAM x = %d, want 2", got)
	}
	nodes[2].Write("y", 3)
	nodes[0].WaitReceived([]uint64{0, 0, 1})
	if got := nodes[0].causalSnapshotValue("y"); got != 0 {
		t.Fatalf("node 0 causally applied y=%d before x=2, which it depends on", got)
	}
	for _, p := range [][2]int{{0, 2}, {1, 0}} {
		if err := f.Release(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].WaitCausalApplied([]uint64{0, 1, 1})
	for loc, want := range map[string]int64{"x": 2, "y": 3} {
		if got := nodes[0].ReadCausal(loc); got != want {
			t.Errorf("node 0 causal %s = %d, want %d", loc, got, want)
		}
	}
	if got := nodes[2].ReadCausal("x"); got != 2 {
		t.Errorf("node 2 causal x = %d, want 2", got)
	}
}

// TestCausalReadAfterParkedOwnWriteReturnsIt pins program order through the
// causal view: an own write that has to wait for what its process observed
// parks, and a causal read the same thread issues right after it waits for
// it and returns it.
func TestCausalReadAfterParkedOwnWriteReturnsIt(t *testing.T) {
	nodes, f := batchedCluster(t, 3, BatchConfig{})
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("x", 1)
	nodes[1].WaitCausalApplied([]uint64{1, 0, 0})
	nodes[1].Write("x", 2)
	nodes[2].WaitReceived([]uint64{0, 1, 0})
	nodes[2].ReadPRAM("x") // observes x=2, parked behind the held x=1
	got := make(chan int64, 1)
	go func() {
		nodes[2].Write("z", 3)
		got <- nodes[2].ReadCausal("z")
	}()
	eventually(t, func() bool { return nodes[2].Stats().PendingGroups == 2 },
		"node 2's own write never parked behind the group it observed")
	if v := nodes[2].causalSnapshotValue("z"); v != 0 {
		t.Fatalf("own write z=%d entered the causal view before what its process observed", v)
	}
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 3 {
		t.Fatalf("causal read after own write z=3 returned %d", v)
	}
}

// TestPendingGroupsStats pins the backlog gauge: groups parked behind a held
// sender show up in Stats.PendingGroups, drain to zero on release, and leave
// their count in the high-water mark.
func TestPendingGroupsStats(t *testing.T) {
	nodes, f := batchedCluster(t, 3, BatchConfig{})
	const k = 10
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("x", 1)
	nodes[1].WaitReceived([]uint64{1, 0, 0})
	for i := 1; i <= k; i++ {
		nodes[1].Write("y", int64(i)) // each depends on node 0's held write
	}
	nodes[2].WaitReceived([]uint64{0, k, 0})
	if s := nodes[2].Stats(); s.PendingGroups != k || s.PendingGroupsMax != k {
		t.Fatalf("parked: PendingGroups=%d PendingGroupsMax=%d, want %d %d",
			s.PendingGroups, s.PendingGroupsMax, k, k)
	}
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[2].WaitCausalApplied([]uint64{1, k, 0})
	if s := nodes[2].Stats(); s.PendingGroups != 0 || s.PendingGroupsMax != k {
		t.Fatalf("released: PendingGroups=%d PendingGroupsMax=%d, want 0 %d",
			s.PendingGroups, s.PendingGroupsMax, k)
	}
	if got := nodes[2].ReadCausal("y"); got != k {
		t.Fatalf("y = %d, want %d", got, k)
	}
}

// refGroup is the delivery metadata of one received message, copied out at
// capture time (the real receiver recycles batch slices once applied), or of
// one of the receiver's own writes (self), which waits for need: its
// observation fence when it was issued. An elided group waits for nothing but
// its sender's earlier groups and is never released into the causal view.
type refGroup struct {
	from              int
	firstSeq, lastSeq uint64
	entries           uint64
	ts, need          []uint64
	deps              Matrix
	slow, elided      bool
	self              bool
}

func (g refGroup) String() string {
	return fmt.Sprintf("%d:[%d,%d]x%d", g.from, g.firstSeq, g.lastSeq, g.entries)
}

// refReceiver is the reference causal-delivery model the per-sender queues
// are checked against: every received group is appended to ONE flat list in
// arrival order, and every arrival rescans the whole list, pass after pass,
// until a pass releases nothing. Within a pass a sender's groups after its
// first unreleased one stay put: sender order is the channel's arrival order,
// kept by holding the rest behind that one. It is the drain the runtime used
// before the queues, kept here as the specification of release order.
type refReceiver struct {
	id, n      int
	applied    []uint64 // causalApplied
	pending    []refGroup
	released   []refGroup
	maxPending int
	selfParked int // own writes that did not settle on arrival
}

// covers reports whether need[k] is applied for every k but from.
func (r *refReceiver) covers(from int, need []uint64) bool {
	for k := 0; k < r.n && k < len(need); k++ {
		if k != from && r.applied[k] < need[k] {
			return false
		}
	}
	return true
}

// holds reports whether a group of sender from is unreleased.
func (r *refReceiver) holds(from int) bool {
	for _, g := range r.pending {
		if g.from == from {
			return true
		}
	}
	return false
}

// deliverable reports whether g's cross-sender dependencies are applied; the
// caller holds it behind any earlier unreleased group of its sender.
func (r *refReceiver) deliverable(g refGroup) bool {
	switch {
	case g.slow, g.elided:
		return true
	case g.self:
		return r.covers(g.from, g.need)
	case g.deps != nil:
		return r.covers(g.from, g.deps.Row(r.id))
	}
	return len(g.ts) == r.n && r.covers(g.from, g.ts)
}

func (r *refReceiver) arrive(g refGroup) {
	if g.self && (r.holds(g.from) || !r.deliverable(g)) {
		r.selfParked++
	}
	r.pending = append(r.pending, g)
	for progressed := true; progressed; {
		progressed = false
		kept := r.pending[:0]
		held := make([]bool, r.n) // the sender has an unreleased group ahead
		for _, g := range r.pending {
			if held[g.from] || !r.deliverable(g) {
				held[g.from] = true
				kept = append(kept, g)
				continue
			}
			// The run may end in Slow or elided entries, past its timestamp
			// or matrix: it settles at its latest entry all the same.
			r.applied[g.from] = g.lastSeq
			if !g.elided {
				r.released = append(r.released, g)
			}
			progressed = true
		}
		r.pending = kept
	}
	if len(r.pending) > r.maxPending {
		r.maxPending = len(r.pending)
	}
}

// captureTransport diverts every message addressed to one node into
// per-sender logs instead of delivering it, so a test can hand that node its
// traffic in an interleaving of its own choosing. The log keeps each update
// past whatever the node does with it, so it takes a reference of its own.
type captureTransport struct {
	transport.Transport
	to  int
	mu  sync.Mutex
	got [][]network.Message // indexed by sender, in send order
}

func (c *captureTransport) Send(m network.Message) error {
	if m.To != c.to {
		return c.Transport.Send(m)
	}
	if u, ok := m.Payload.(*Update); ok {
		u.retain()
	}
	c.mu.Lock()
	c.got[m.From] = append(c.got[m.From], m)
	c.mu.Unlock()
	return nil
}

func (c *captureTransport) Broadcast(from int, kind string, payload any, size int) error {
	for j := 0; j < c.Nodes(); j++ {
		if j == from {
			continue
		}
		if err := c.Send(network.Message{From: from, To: j, Kind: kind, Payload: payload, Size: size}); err != nil {
			return err
		}
	}
	return nil
}

// refGroupOf copies a captured message's delivery metadata, classifying it
// the way the receive path does. A batch's group waits for the timestamp of
// the latest causal entry that carries one — under a scope, the batch's
// matrix — and it settles at the batch's latest entry, elided or not; only
// when every entry is Slow is the group Slow, and only when the batch carries
// no matrix under a scope (every entry elided) is it elided whole.
func refGroupOf(m network.Message, scoped bool) refGroup {
	switch p := m.Payload.(type) {
	case *Update:
		return refGroup{
			from: p.From, firstSeq: p.Seq, lastSeq: p.Seq, entries: 1,
			ts: slices.Clone(p.TS), deps: p.Deps,
			slow:   !scoped && p.Label == history.LabelSlow,
			elided: scoped && p.Deps == nil,
		}
	case *UpdateBatch:
		g := refGroup{from: p.From, firstSeq: p.FirstSeq, entries: uint64(len(p.Updates)), deps: p.Deps}
		var stamped *Update
		for i := range p.Updates {
			u := &p.Updates[i]
			g.lastSeq = max(g.lastSeq, u.Seq)
			if !u.elided && u.Label != history.LabelSlow && (stamped == nil || u.Seq > stamped.Seq) {
				stamped = u
			}
		}
		switch {
		case scoped:
			g.elided = p.Deps == nil
		default:
			g.slow = stamped == nil
			if stamped != nil {
				g.ts = slices.Clone(stamped.TS)
			}
		}
		return g
	}
	panic(fmt.Sprintf("captured a %T", m.Payload))
}

// mixedBatch reports whether b's entries were stamped under more than one
// obligation: elided and causal copies under a scope, Slow and timestamped
// writes under broadcast.
func mixedBatch(b *UpdateBatch, scoped bool) bool {
	class := func(u *Update) bool {
		if scoped {
			return u.elided
		}
		return u.Label == history.LabelSlow
	}
	for i := range b.Updates {
		if class(&b.Updates[i]) != class(&b.Updates[0]) {
			return true
		}
	}
	return false
}

// TestDrainMatchesFlatScan is the differential test for the per-sender
// pending queues. Real sender nodes generate causally entangled traffic
// (writes, cross-sender waits that create dependencies, batch flushes); every
// message addressed to the receiver is captured, then fed to it directly in a
// seeded interleaving that respects per-sender FIFO but stalls senders for
// long stretches, so groups park. The receiver writes too, from its first
// operation to the seeded schedule's end, some writes after a PRAM read of a
// parked group, so its own writes park in its own queue. The same arrivals,
// its own writes among them, drive the flat-scan reference. After every
// arrival the receiver's causalApplied must equal the reference's, and at the
// end the EvGroupRelease events of its trace must list the reference's
// releases in the same order (an elided group settles in its sender's order
// without one) — in all three delivery modes (broadcast timestamps, scoped
// dependency matrices, slow FIFO-only groups mixed into timestamped traffic),
// unbatched and batched. Batched, the scoped
// and slow modes' batches mix obligations, so their groups have elided holes
// or Slow entries past their timestamp.
func TestDrainMatchesFlatScan(t *testing.T) {
	const n = 4 // three senders and the receiver
	allNodes := []int{0, 1, 2, 3}
	modes := []struct {
		name   string
		scope  *ScopeMap
		labels map[string]history.Label
		locs   []string
	}{
		{name: "broadcast", locs: []string{"a", "b", "c", "d"}},
		{name: "scoped", locs: []string{"c0", "c1", "c2", "p0", "p1", "unlisted"},
			scope: &ScopeMap{
				Readers: map[string][]int{
					"c0": allNodes, "c1": allNodes, "c2": allNodes, "p0": allNodes, "p1": allNodes,
				},
				CausalReaders: map[string][]int{"c0": allNodes, "c1": allNodes, "c2": allNodes},
			}},
		{name: "slow", locs: []string{"a", "b", "s0", "s1"},
			labels: map[string]history.Label{"s0": history.LabelSlow, "s1": history.LabelSlow}},
	}
	for _, mode := range modes {
		for _, batched := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("%s/batched=%v/seed=%d", mode.name, batched, seed)
				t.Run(name, func(t *testing.T) {
					var batch BatchConfig
					if batched {
						// Flushes come from the threshold and from the
						// schedule below, never from the clock.
						batch = BatchConfig{Enabled: true, MaxUpdates: 6, Linger: time.Hour}
					}
					runDrainDifferential(t, n, mode.scope, mode.labels, mode.locs, batch, seed)
				})
			}
		}
	}
}

func runDrainDifferential(t *testing.T, n int, scope *ScopeMap, labels map[string]history.Label,
	locs []string, batch BatchConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	recv := n - 1
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	capture := &captureTransport{Transport: f, to: recv, got: make([][]network.Message, n)}
	tracer := obs.NewTracer(recv, 1<<16)
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{ID: i, N: n, Transport: capture, Scope: scope, Labels: labels, Batch: batch}
		if i == recv {
			cfg.Transport, cfg.Tracer = f, tracer
		}
		if nodes[i], err = NewNode(cfg); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	r := nodes[recv]
	ref := &refReceiver{id: recv, n: n, applied: make([]uint64, n)}
	value := int64(1)
	// own issues one of the receiver's writes and hands the reference the same
	// group: the next sequence number, waiting for the fence as it stands.
	own := func(loc string, add bool) refGroup {
		g := refGroup{from: recv, entries: 1, self: true, need: make([]uint64, n)}
		g.firstSeq = r.ReceivedSeqs(nil)[recv] + 1
		g.lastSeq = g.firstSeq
		for j := range g.need {
			g.need[j] = r.fence.get(j)
		}
		ref.arrive(g)
		if add {
			r.Add(loc, 1)
		} else {
			r.Write(loc, value)
			value++
		}
		return g
	}

	// The receiver speaks first, so the senders' dependency metadata carries
	// a nonzero component for it too.
	for i := 0; i < 3; i++ {
		own(locs[i%len(locs)], false)
	}
	sentByRecv := r.SentSeqs(nil)
	for s := 0; s < recv; s++ {
		min := make([]uint64, n)
		min[recv] = sentByRecv[s]
		nodes[s].WaitCausalApplied(min)
	}

	// Generate traffic: mostly writes; now and then a sender waits until it
	// has causally applied everything another sender addressed to it, which
	// entangles its later writes with that sender's stream.
	for step := 0; step < 400; step++ {
		s := rng.Intn(recv)
		switch k := rng.Intn(10); {
		case k < 7:
			loc := locs[rng.Intn(len(locs))]
			if rng.Intn(5) == 0 {
				nodes[s].Add(loc, 1)
			} else {
				nodes[s].Write(loc, value)
				value++
			}
		case k < 9:
			other := (s + 1 + rng.Intn(recv-1)) % recv
			min := make([]uint64, n)
			min[other] = nodes[other].SentSeqs(nil)[s] // flushes other's outbox
			nodes[s].WaitCausalApplied(min)
		default:
			nodes[s].FlushUpdates()
		}
	}
	for s := 0; s < recv; s++ {
		nodes[s].FlushUpdates()
	}

	// Deliver: per-sender order is kept, the interleaving is not. Weights are
	// redrawn every so often and include zero, so a sender's stream can stall
	// while the streams that depend on it pile up.
	next := make([]int, n)
	weight := make([]int, n)
	mixed := 0 // batches whose entries mix obligations
	remaining := 0
	for s := 0; s < recv; s++ {
		remaining += len(capture.got[s])
	}
	if remaining < 100 {
		t.Fatalf("only %d messages captured", remaining)
	}
	for arrival := 0; remaining > 0; arrival++ {
		if arrival%25 == 0 {
			for s := range weight {
				weight[s] = []int{0, 0, 1, 8}[rng.Intn(4)]
			}
		}
		var g refGroup
		if rng.Intn(4) == 0 {
			// The receiver writes too, after a PRAM read that can raise its
			// fence past its causal view: the write then parks behind what it
			// observed, in the receiver's own queue.
			r.ReadPRAM(locs[rng.Intn(len(locs))])
			g = own(locs[rng.Intn(len(locs))], rng.Intn(5) == 0)
		} else {
			total := 0
			for s := 0; s < recv; s++ {
				if next[s] < len(capture.got[s]) {
					total += weight[s]
				}
			}
			pick := -1
			if total > 0 {
				x := rng.Intn(total)
				for s := 0; s < recv && pick < 0; s++ {
					if next[s] < len(capture.got[s]) {
						if x < weight[s] {
							pick = s
						}
						x -= weight[s]
					}
				}
			} else {
				for s := 0; s < recv && pick < 0; s++ {
					if next[s] < len(capture.got[s]) {
						pick = s
					}
				}
			}
			m := capture.got[pick][next[pick]]
			next[pick]++
			remaining--

			g = refGroupOf(m, scope != nil)
			if b, ok := m.Payload.(*UpdateBatch); ok && mixedBatch(b, scope != nil) {
				mixed++
			}
			ref.arrive(g)
			switch p := m.Payload.(type) {
			case *Update:
				r.applyRemote(m.From, p)
			case *UpdateBatch:
				r.applyBatch(m.From, p)
			}
		}
		r.clockMu.Lock()
		for j := 0; j < n; j++ {
			if got := r.causalApplied.get(j); got != ref.applied[j] {
				t.Errorf("arrival %d (%v): causalApplied[%d] = %d, reference %d", arrival, g, j, got, ref.applied[j])
			}
		}
		r.clockMu.Unlock()
		if got := r.Stats().PendingGroups; got != uint64(len(ref.pending)) {
			t.Errorf("arrival %d (%v): %d groups parked, reference %d", arrival, g, got, len(ref.pending))
		}
		if t.Failed() {
			return
		}
	}

	if len(ref.pending) != 0 {
		t.Fatalf("reference left %d groups undelivered: %v", len(ref.pending), ref.pending)
	}
	if ref.maxPending < 5 {
		t.Fatalf("schedule parked at most %d groups; the drain was barely exercised", ref.maxPending)
	}
	if ref.selfParked < 5 {
		t.Fatalf("%d own writes of the receiver parked; its queue was barely exercised", ref.selfParked)
	}
	if batch.Enabled && (scope != nil || labels != nil) && mixed < 5 {
		t.Fatalf("%d batches mixed obligations; groups with holes were barely exercised", mixed)
	}
	if got := r.Stats().PendingGroupsMax; got != uint64(ref.maxPending) {
		t.Errorf("PendingGroupsMax = %d, reference %d", got, ref.maxPending)
	}
	snap := tracer.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("trace ring dropped %d events", snap.Dropped)
	}
	var released []refGroup
	waits := 0
	for _, e := range snap.Events {
		switch e.Type {
		case obs.EvGroupRelease:
			released = append(released, refGroup{from: int(e.Peer), firstSeq: e.Seq, lastSeq: e.A, entries: e.B})
		case obs.EvDepWaitBegin:
			waits++
		case obs.EvDepWaitEnd:
			waits--
		}
	}
	if waits != 0 {
		t.Errorf("%d dep-wait spans left open", waits)
	}
	if len(released) != len(ref.released) {
		t.Fatalf("released %d groups, reference %d", len(released), len(ref.released))
	}
	for i, g := range released {
		if g.String() != ref.released[i].String() {
			t.Fatalf("release %d is %v, reference %v", i, g, ref.released[i])
		}
	}
}
