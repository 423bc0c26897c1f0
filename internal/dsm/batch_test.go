package dsm

import (
	"fmt"
	"testing"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// batchedCluster builds a fabric and n nodes with the given batch config.
func batchedCluster(t *testing.T, n int, batch BatchConfig) ([]*Node, *network.Fabric) {
	t.Helper()
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i], err = NewNode(Config{ID: i, N: n, Transport: f, Batch: batch})
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
	return nodes, f
}

func TestBatchedPropagationLinger(t *testing.T) {
	// No explicit flush and thresholds far out of reach: only the linger
	// timer can move the updates.
	nodes, _ := batchedCluster(t, 3, BatchConfig{
		Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30,
		Linger: time.Millisecond,
	})
	nodes[0].Write("x", 42)
	eventually(t, func() bool { return nodes[2].ReadPRAM("x") == 42 },
		"linger flush never propagated the update")
	eventually(t, func() bool { return nodes[2].ReadCausal("x") == 42 },
		"causal view never applied the lingered update")
}

func TestBatchCoalescingLastWriterWins(t *testing.T) {
	nodes, f := batchedCluster(t, 2, BatchConfig{
		Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30,
		Linger: time.Hour, // flush only explicitly
	})
	const writes = 10
	for i := 1; i <= writes; i++ {
		nodes[0].Write("x", int64(i))
	}
	nodes[0].FlushUpdates()
	// Coalescing must not hide any update from the counting protocols.
	nodes[1].WaitReceived([]uint64{writes, 0})
	if got := nodes[1].ReadPRAM("x"); got != writes {
		t.Fatalf("PRAM x = %d, want %d", got, writes)
	}
	nodes[1].WaitCausalApplied([]uint64{writes, 0})
	if got := nodes[1].ReadCausal("x"); got != writes {
		t.Fatalf("causal x = %d, want %d", got, writes)
	}
	// Ten same-location sets coalesce into one single-entry batch frame.
	s := f.Stats()
	if s.PerKind[KindUpdateBatch] != 1 {
		t.Fatalf("batch frames = %d, want 1 (stats %v)", s.PerKind[KindUpdateBatch], s.PerKind)
	}
	if s.PerKind[KindUpdate] != 0 {
		t.Fatalf("plain update frames = %d, want 0", s.PerKind[KindUpdate])
	}
	if s.PerKindBytes[KindUpdateBatch] == 0 {
		t.Fatal("per-kind byte accounting missing for batches")
	}
}

func TestBatchAddsDoNotCoalesce(t *testing.T) {
	nodes, _ := batchedCluster(t, 2, BatchConfig{
		Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour,
	})
	// set, add, set, add on one location: the adds must keep their position
	// relative to the sets so the receiver's replay yields the same value.
	nodes[0].Write("c", 100)
	nodes[0].Add("c", 5)
	nodes[0].Write("c", 200)
	nodes[0].Add("c", 7)
	nodes[0].FlushUpdates()
	nodes[1].WaitReceived([]uint64{4, 0})
	if got := nodes[1].ReadPRAM("c"); got != 207 {
		t.Fatalf("c = %d, want 207", got)
	}
	if got := nodes[0].ReadPRAM("c"); got != 207 {
		t.Fatalf("writer's own c = %d, want 207", got)
	}
}

func TestBatchSingleUpdateUsesPlainFrame(t *testing.T) {
	nodes, f := batchedCluster(t, 2, BatchConfig{
		Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour,
	})
	nodes[0].Write("x", 1)
	nodes[0].FlushUpdates()
	nodes[1].WaitReceived([]uint64{1, 0})
	s := f.Stats()
	if s.PerKind[KindUpdate] != 1 || s.PerKind[KindUpdateBatch] != 0 {
		t.Fatalf("frames = update:%d batch:%d, want 1/0",
			s.PerKind[KindUpdate], s.PerKind[KindUpdateBatch])
	}
}

func TestBatchMaxUpdatesThresholdFlush(t *testing.T) {
	nodes, f := batchedCluster(t, 2, BatchConfig{
		Enabled: true, MaxUpdates: 4, MaxBytes: 1 << 30, Linger: time.Hour,
	})
	locs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, loc := range locs {
		nodes[0].Write(loc, int64(i+1))
	}
	// Eight distinct locations with MaxUpdates 4 flush twice on their own.
	nodes[1].WaitReceived([]uint64{8, 0})
	s := f.Stats()
	if s.PerKind[KindUpdateBatch] != 2 {
		t.Fatalf("batch frames = %d, want 2", s.PerKind[KindUpdateBatch])
	}
	for i, loc := range locs {
		if got := nodes[1].ReadPRAM(loc); got != int64(i+1) {
			t.Fatalf("%s = %d, want %d", loc, got, i+1)
		}
	}
}

func TestBatchAwaitFlushesHandshake(t *testing.T) {
	// Two processes hand values to each other and block in Await without
	// ever touching a lock or barrier: the await-registration flush (plus
	// the receiver side's apply) must complete the handshake even with the
	// linger timer effectively off.
	nodes, _ := batchedCluster(t, 2, BatchConfig{
		Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour,
	})
	done := make(chan struct{})
	go func() { // node 1: respond to the request, then finish the exchange
		nodes[1].AwaitPRAM("req", 1)
		nodes[1].Write("resp", 2)
		nodes[1].AwaitPRAM("ack", 3) // registering flushes "resp"
		nodes[1].Write("fin", 4)
		nodes[1].FlushUpdates() // the chain's last write has no await after it
	}()
	go func() { // node 0: initiate, each await flushing the prior write
		nodes[0].Write("req", 1)
		nodes[0].AwaitPRAM("resp", 2) // registering flushes "req"
		nodes[0].Write("ack", 3)
		nodes[0].AwaitPRAM("fin", 4) // registering flushes "ack"
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handshake deadlocked: await registration did not flush the outbox")
	}
}

func TestBatchCausalGroupAtomicity(t *testing.T) {
	// Node 0 writes a batch; node 1 causally reads a late value and must
	// then see every earlier value of the same batch (they were applied
	// together), on both views.
	nodes, _ := batchedCluster(t, 3, BatchConfig{
		Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour,
	})
	nodes[0].Write("a", 1)
	nodes[0].Write("b", 2)
	nodes[0].Write("c", 3)
	nodes[0].FlushUpdates()
	nodes[1].WaitCausalApplied([]uint64{3, 0, 0})
	if got := nodes[1].ReadCausal("a"); got != 1 {
		t.Fatalf("a = %d, want 1", got)
	}
	if got := nodes[1].ReadCausal("c"); got != 3 {
		t.Fatalf("c = %d, want 3", got)
	}
}

func TestBatchCausalChainAcrossSenders(t *testing.T) {
	// A classic causal chain with batches: node 0 publishes a batch, node 1
	// observes it and publishes its own batch, node 2 must apply them in
	// causal order even if node 1's batch arrives first.
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	batch := BatchConfig{Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 3, Transport: f, Batch: batch})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	// Delay node 0's channel to node 2 so node 1's dependent batch gets
	// there first.
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("x", 1)
	nodes[0].Write("y", 2)
	nodes[0].FlushUpdates()
	nodes[1].WaitCausalApplied([]uint64{2, 0, 0})
	nodes[1].Write("z", 3) // causally after node 0's batch
	nodes[1].FlushUpdates()
	// Node 2 has z pending but must not causally apply it before x,y.
	eventually(t, func() bool { return nodes[2].Stats().PendingGroups == 1 },
		"node 1's batch never parked at node 2")
	if got := nodes[2].causalSnapshotValue("z"); got != 0 {
		t.Fatalf("z causally applied before its dependencies: %d", got)
	}
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[2].WaitCausalApplied([]uint64{2, 1, 0})
	if got := nodes[2].ReadCausal("z"); got != 3 {
		t.Fatalf("z = %d, want 3", got)
	}
	if got := nodes[2].ReadCausal("x"); got != 1 {
		t.Fatalf("x = %d, want 1", got)
	}
}

// causalSnapshotValue reads the causal view without blocking on fences or
// invalidations — a test probe for "has this been causally applied yet".
func (n *Node) causalSnapshotValue(loc string) int64 {
	h := loctab.Hash(loc)
	if c := n.lookup(h, loc); c != nil {
		return c.causal.Load()
	}
	return 0
}

func TestBatchScopedPlacement(t *testing.T) {
	// Batching composes with scoped placement: per-destination outboxes see
	// different update streams with per-sender sequence holes.
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{Readers: map[string][]int{
		"pair": {1},
		"all":  {1, 2},
	}}
	batch := BatchConfig{Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], err = NewNode(Config{
			ID: i, N: 3, Transport: f, PRAMOnly: true, Scope: scope, Batch: batch,
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	nodes[0].Write("pair", 5) // seq 1 -> node 1 only
	nodes[0].Write("all", 7)  // seq 2 -> both
	nodes[0].Write("all", 8)  // seq 3 -> both, coalesces with seq 2
	nodes[1].WaitReceived(sentTo(nodes, 1))
	nodes[2].WaitReceived(sentTo(nodes, 2))
	if got := nodes[1].ReadPRAM("pair"); got != 5 {
		t.Fatalf("n1 pair = %d, want 5", got)
	}
	if got := nodes[2].ReadPRAM("all"); got != 8 {
		t.Fatalf("n2 all = %d, want 8", got)
	}
	if got := nodes[2].ReadPRAM("pair"); got != 0 {
		t.Fatalf("scoped update leaked to node 2: %d", got)
	}
}

func TestBatchScopedCausalDepsCapturedAtEnqueue(t *testing.T) {
	// Regression: a parked causal batch must ship the address-matrix
	// snapshot its writes were written under, never one absorbed later.
	// Node 0's write W to "a" reaches node 2 but stays parked for node 1;
	// node 2 (having causally applied W) writes Y to "b", which node 0
	// causally applies — merging a matrix that records W at node 1. If node
	// 0's next write X then ships in one batch with W under a flush-time
	// snapshot, that batch waits on Y at node 1 while Y waits on W inside
	// the batch: a permanent circular wait in the causal view.
	f, err := network.New(network.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{
		Readers: map[string][]int{
			"a": {1, 2}, "c": {1, 2}, "b": {0, 1},
		},
		CausalReaders: map[string][]int{
			"a": {1, 2}, "c": {1, 2}, "b": {0, 1},
		},
	}
	batch := BatchConfig{Enabled: true, MaxUpdates: 1 << 20, MaxBytes: 1 << 30, Linger: time.Hour}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 3, Transport: f, Scope: scope, Batch: batch})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	nodes[0].Write("a", 1) // W: parked for both causal readers
	// Relay W to node 2 only; node 1's copy stays in the outbox.
	ob2 := &nodes[0].outbox[2]
	nodes[0].outboxMu.Lock()
	nodes[0].flushDestLocked(2, ob2)
	nodes[0].outboxMu.Unlock()
	nodes[2].WaitCausalApplied([]uint64{1, 0, 0})
	nodes[2].Write("b", 2) // Y: causally after W
	nodes[2].FlushUpdates()
	// Wait for node 0 to causally apply Y (merging node 2's matrix) with a
	// probe, not WaitCausalApplied — the latter flushes the outbox and
	// would dissolve the parked batch this test is about.
	eventually(t, func() bool { return nodes[0].causalSnapshotValue("b") == 2 },
		"node 0 never causally applied Y")
	nodes[0].Write("c", 3) // X: must not share a batch (or snapshot) with W
	nodes[0].FlushUpdates()

	done := make(chan struct{})
	min := sentTo(nodes, 1)
	go func() {
		nodes[1].WaitCausalApplied(min)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("causal view deadlocked: batch shipped a flush-time deps snapshot")
	}
	for loc, want := range map[string]int64{"a": 1, "b": 2, "c": 3} {
		if got := nodes[1].ReadCausal(loc); got != want {
			t.Fatalf("%s = %d, want %d", loc, got, want)
		}
	}
}

func TestScopedCausalMalformedDepsDoesNotStall(t *testing.T) {
	// A scoped-causal update (or batch) whose dependency matrix has the
	// wrong dimension must stay out of the causal view but still count as
	// causally settled, so barriers and WaitCausalApplied cannot hang on a
	// misconfigured peer — and the fault must be visible in Stats.
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{
		Readers:       map[string][]int{"a": {0, 1}},
		CausalReaders: map[string][]int{"a": {0, 1}},
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 2, Transport: f, Scope: scope})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	bad := &Update{From: 0, Seq: 1, Op: OpSet, Loc: "a", Defines: true, Value: 7,
		Deps: vclock.NewMatrix(5)} // wrong dimension for a 2-node system
	if err := f.Send(network.Message{
		From: 0, To: 1, Kind: KindUpdate, Payload: bad, Size: bad.encodedSize(),
	}); err != nil {
		t.Fatal(err)
	}
	badBatch := &UpdateBatch{
		From: 0, FirstSeq: 2, Deps: vclock.NewMatrix(5),
		Updates: []Update{
			{From: 0, Seq: 2, Op: OpSet, Loc: "a", Value: 8},
			{From: 0, Seq: 3, Op: OpSet, Loc: "a", Value: 9},
		},
	}
	if err := f.Send(network.Message{
		From: 0, To: 1, Kind: KindUpdateBatch, Payload: badBatch, Size: badBatch.encodedSize(),
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		nodes[1].WaitCausalApplied([]uint64{3, 0})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCausalApplied hung on malformed dependency matrices")
	}
	// The PRAM view applied the values in receive order; the causal view
	// never saw them, and no observation fence was raised that a causal
	// read could stall on.
	if got := nodes[1].ReadPRAM("a"); got != 9 {
		t.Fatalf("PRAM a = %d, want 9", got)
	}
	if got := nodes[1].causalSnapshotValue("a"); got != 0 {
		t.Fatalf("malformed update reached the causal view: a = %d", got)
	}
	if got := nodes[1].ReadCausal("a"); got != 0 {
		t.Fatalf("causal read stalled or saw a malformed update: a = %d", got)
	}
	if got := nodes[1].Stats().MalformedUpdates; got != 3 {
		t.Fatalf("MalformedUpdates = %d, want 3", got)
	}
}

func TestEncodedSizeMatchesCodec(t *testing.T) {
	// The latency model's wire-size accounting must track the real codecs
	// byte for byte, including which sections are present.
	deps := vclock.NewMatrix(3)
	deps.Set(1, 0, 4)
	ts := vclock.New(3)
	ts[0], ts[1], ts[2] = 2, 3, 5
	updates := []Update{
		{From: 1, Seq: 2, Op: OpSet, Loc: "x[2]", Value: -9},
		{From: 1, Seq: 3, Op: OpSet, Loc: "x[2]", Value: -9, TS: ts},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "", Value: 1, Deps: deps},
	}
	for i := range updates {
		u := &updates[i]
		enc, err := transport.EncodePayload(nil, KindUpdate, u)
		if err != nil {
			t.Fatalf("update %d: encode: %v", i, err)
		}
		if got, want := u.encodedSize(), len(enc); got != want {
			t.Fatalf("update %d: encodedSize = %d, codec writes %d bytes", i, got, want)
		}
	}
	batches := []*UpdateBatch{
		{From: 1, FirstSeq: 2, Updates: updates[:2]},
		{From: 1, FirstSeq: 3, Deps: deps,
			Updates: []Update{{From: 1, Seq: 3, Op: OpSet, Loc: "y", Value: 1}}},
		// Mixed obligations: the elided flag rides in the flags byte, so it
		// costs nothing.
		{From: 1, FirstSeq: 3, Deps: deps, Updates: []Update{
			{From: 1, Seq: 3, Op: OpSet, Loc: "c", Value: 1},
			{From: 1, Seq: 4, Op: OpAdd, Loc: "p", Value: 2, elided: true},
			{From: 1, Seq: 6, Op: OpAddFloat, Loc: "c2", Value: 3},
		}},
	}
	for i, b := range batches {
		enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
		if err != nil {
			t.Fatalf("batch %d: encode: %v", i, err)
		}
		if got, want := b.encodedSize(), len(enc); got != want {
			t.Fatalf("batch %d: encodedSize = %d, codec writes %d bytes", i, got, want)
		}
	}
}

// TestEncodedSizeIsScheduleIndependent pins the rule that keeps the byte
// counts a property of the program: clock and matrix entries are fixed-width,
// so two updates, or two batches, that differ only in the values of their
// timestamps or dependency matrices — which depend on the interleaving that
// produced them — have the same size, on the wire and in encodedSize, in every
// shape: PRAM-only, timestamp-elided, stamped and scoped. The matrices share
// their active indices; which processes took part is the program's business.
// So are the sections an update carries, which follow from its label, scope
// and mode, and the location field: a location's ordinal is its rank in its
// writer's first-write order and only the first write names it, so one program
// run under two schedules ships the same bytes, batched or not, stamped,
// PRAM-only or Slow.
func TestEncodedSizeIsScheduleIndependent(t *testing.T) {
	stamps := func(from int, seq, v uint64) (vclock.VC, vclock.Matrix) {
		ts := vclock.VC{v, v * 3, v * 7, v + 1}
		ts[from] = seq
		deps := vclock.NewMatrix(4)
		deps.Set(0, 2, v+1)
		deps.Set(2, 3, v<<20+1)
		deps.Set(3, 0, 1)
		return ts, deps
	}
	size := func(what string, p any) int {
		t.Helper()
		kind := KindUpdate
		want := 0
		switch p := p.(type) {
		case *Update:
			want = p.encodedSize()
		case *UpdateBatch:
			kind, want = KindUpdateBatch, p.encodedSize()
		}
		enc, err := transport.EncodePayload(nil, kind, p)
		if err != nil || len(enc) != want {
			t.Fatalf("%s: %d bytes on the wire (%v), encodedSize says %d", what, len(enc), err, want)
		}
		return want
	}
	var sizes [2][7]int
	for i, v := range []uint64{0, 1<<63 + 12345} {
		ts, deps := stamps(1, 9, v)
		bts, _ := stamps(1, 11, v^5)
		sizes[i] = [7]int{
			size("PRAM-only update", &Update{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: int64(v)}),
			size("elided update", &Update{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: int64(v), Label: history.LabelSlow}),
			size("vector update", &Update{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: 1, TS: ts}),
			size("matrix update", &Update{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: 1, Deps: deps}),
			size("vector batch", &UpdateBatch{From: 1, FirstSeq: 9, Updates: []Update{
				{From: 1, Seq: 9, Op: OpSet, Loc: "x", TS: ts},
				{From: 1, Seq: 11, Op: OpAdd, Loc: "y", TS: bts},
			}}),
			size("matrix batch", &UpdateBatch{From: 1, FirstSeq: 9, Deps: deps, Updates: []Update{
				{From: 1, Seq: 9, Op: OpSet, Loc: "x"},
				{From: 1, Seq: 11, Op: OpAdd, Loc: "y", elided: true},
			}}),
			size("elided batch", &UpdateBatch{From: 1, FirstSeq: 9, Updates: []Update{
				{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: int64(v), elided: true},
				{From: 1, Seq: 11, Op: OpAdd, Loc: "y", Value: int64(v), Label: history.LabelSlow},
			}}),
		}
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("sizes (PRAM-only update, elided update, vector update, matrix update, vector batch, matrix batch, elided batch) moved with the metadata's values: %v vs %v",
			sizes[0], sizes[1])
	}

	// One program, two schedules: three processes write their locations in
	// their own orders — sequentially, one process after the other, then round
	// robin.
	const n, rounds = 3, 4
	program := func(p, step int) string { return fmt.Sprintf("p%d/%d", p, (step*(p+2))%7) }
	// Every third location is Slow: its updates ship no timestamp.
	slow := map[string]history.Label{}
	for p := 0; p < n; p++ {
		for l := 0; l < 7; l += 3 {
			slow[program(p, l)] = history.LabelSlow
		}
	}
	shipped := func(cfg Config, roundRobin bool) uint64 {
		f, err := network.New(network.Config{Nodes: n})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*Node, n)
		for i := range nodes {
			cfg.ID, cfg.N, cfg.Transport = i, n, f
			if nodes[i], err = NewNode(cfg); err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			f.Close()
			for _, nd := range nodes {
				nd.Close()
			}
		}()
		step := func(p, s int) {
			nodes[p].Write(program(p, s), int64(s))
			if s%5 == 4 {
				nodes[p].FlushUpdates()
			}
		}
		const steps = 7 * rounds
		if roundRobin {
			for s := 0; s < steps; s++ {
				for p := range nodes {
					step(p, s)
				}
			}
		} else {
			for p := range nodes {
				for s := 0; s < steps; s++ {
					step(p, s)
				}
			}
		}
		for _, nd := range nodes {
			nd.FlushUpdates()
		}
		return f.Stats().BytesSent
	}
	for _, batch := range []BatchConfig{{}, manualBatch} {
		for _, cfg := range []Config{{Batch: batch}, {Batch: batch, PRAMOnly: true}, {Batch: batch, Labels: slow}} {
			if seq, rr := shipped(cfg, false), shipped(cfg, true); seq != rr {
				t.Errorf("batching %v, PRAM-only %v, Slow labels %v: %d bytes shipped run process by process, %d round robin",
					batch.Enabled, cfg.PRAMOnly, cfg.Labels != nil, seq, rr)
			}
		}
	}
}

func TestBatchConfigValidation(t *testing.T) {
	c := BatchConfig{Enabled: true}.WithDefaults()
	if c.MaxUpdates <= 0 || c.MaxBytes <= 0 || c.Linger <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

// --- KindUpdateBatch codec ---

func TestBatchCodecRoundTrip(t *testing.T) {
	ts1 := vclock.New(3)
	ts1[0], ts1[2] = 17, 4
	ts2 := vclock.New(3)
	ts2[0], ts2[2] = 17, 6
	b := &UpdateBatch{
		From: 2, FirstSeq: 4,
		Updates: []Update{
			{From: 2, Seq: 4, Op: OpSet, Loc: "x[3]", Ordinal: 3, Defines: true, Value: -12345, TS: ts1},
			{From: 2, Seq: 5, Op: OpAddFloat, Loc: "p", Ordinal: 4, Defines: true, Value: 1, elided: true},
			{From: 2, Seq: 6, Op: OpAdd, Ordinal: 3, Value: 7, TS: ts2},
		},
	}
	enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := transport.DecodePayload(KindUpdateBatch, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := dec.(*UpdateBatch)
	if !ok {
		t.Fatalf("decoded %T, want *UpdateBatch", dec)
	}
	if got.From != 2 || got.FirstSeq != 4 || len(got.Updates) != 3 {
		t.Fatalf("header changed: %+v", got)
	}
	for i, u := range got.Updates {
		want := b.Updates[i]
		if u.From != want.From || u.Seq != want.Seq || u.Op != want.Op ||
			u.Loc != want.Loc || u.Ordinal != want.Ordinal || u.Defines != want.Defines ||
			u.Value != want.Value || u.elided != want.elided {
			t.Fatalf("entry %d changed: %+v -> %+v", i, want, u)
		}
	}
	if got.Updates[2].TS.Len() != 3 || got.Updates[2].TS[0] != 17 || got.Updates[2].TS[2] != 6 {
		t.Fatalf("entry timestamp changed: %v", got.Updates[2].TS)
	}
}

func TestBatchCodecEmptyAndNilTimestamps(t *testing.T) {
	b := &UpdateBatch{From: 0, FirstSeq: 1, Updates: []Update{
		{From: 0, Seq: 2, Op: OpSet, Loc: "y", Value: 9},
	}}
	enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := transport.DecodePayload(KindUpdateBatch, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := dec.(*UpdateBatch)
	if got.Updates[0].TS != nil {
		t.Fatalf("nil timestamp round-tripped to %v", got.Updates[0].TS)
	}
}

// rawBatch is a hand-built batch payload: the header — From 0, firstSeq, no
// dependency matrix, nEntries — then the given entry bytes.
func rawBatch(firstSeq, nEntries uint64, entries ...byte) []byte {
	b := transport.AppendUvarint(nil, 0)
	b = transport.AppendUvarint(b, firstSeq)
	b = transport.AppendUvarint(b, 0) // depsN
	b = transport.AppendUvarint(b, nEntries)
	return append(b, entries...)
}

// rawEntry is a hand-built batch entry defining location "x" as ordinal 0 and
// holding 5: seq distance off, flags byte flags, and the bytes after the
// value (the timestamp section, when flags say stamped).
func rawEntry(off uint64, flags byte, tail ...byte) []byte {
	e := transport.AppendUvarint(nil, off)
	e = append(e, flags, 1)
	e = transport.AppendUvarintString(e, "x")
	e = transport.AppendUint64(e, 5)
	return append(e, tail...)
}

func TestBatchCodecMalformed(t *testing.T) {
	if _, err := transport.EncodePayload(nil, KindUpdateBatch, "nope"); err == nil {
		t.Fatal("encoding a non-batch payload succeeded")
	}
	// One payload type for the kind: the value form is not it.
	if _, err := transport.EncodePayload(nil, KindUpdateBatch, UpdateBatch{}); err == nil {
		t.Fatal("encoding an UpdateBatch value (not *UpdateBatch) succeeded")
	}
	setX, stamped := byte(OpSet), byte(flagStamped|OpSet)
	valid := rawBatch(1, 1, rawEntry(0, setX)...)
	if _, err := transport.DecodePayload(KindUpdateBatch, valid); err != nil {
		t.Fatalf("the hand-built batch the cases below corrupt does not decode: %v", err)
	}
	if _, err := transport.DecodePayload(KindUpdateBatch, rawBatch(1, 1, rawEntry(0, stamped, 2, 0, 0, 0, 0, 0, 0, 0, 9)...)); err != nil {
		t.Fatalf("the hand-built stamped batch does not decode: %v", err)
	}
	// A huge claimed dependency-matrix dimension must fail fast: the quadratic
	// allocation it implies is exactly what the bound prevents.
	badDeps := transport.AppendUvarint([]byte{0, 1}, 0xFFFFFFF0)
	// A plausible dimension with no matrix bytes behind it.
	noMatrix := []byte{0, 1, 3}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated header", []byte{1, 2}},
		{"absurd entry count", rawBatch(1, 0xFFFFFFFF)},
		{"more entries than its run has sequence numbers", rawBatch(1, 2, append(rawEntry(0, setX), rawEntry(0, setX)...)...)},
		{"absurd dependency dimension", badDeps},
		{"truncated dependency matrix", noMatrix},
		{"absurd timestamp length", rawBatch(1, 1, rawEntry(0, stamped, transport.AppendUvarint(nil, 0x7FFFFFFF)...)...)},
		{"entry seq past the 64-bit range", rawBatch(1<<64-1, 1, rawEntry(1, setX)...)},
		{"no operation", rawBatch(1, 1, rawEntry(0, 0)...)},
		{"elided bit without an operation", rawBatch(1, 1, rawEntry(0, 0x80)...)},
		{"label above SC", rawBatch(1, 1, rawEntry(0, byte(history.LabelSC+1)<<2|setX)...)},
		{"label bits all set", rawBatch(1, 1, rawEntry(0, 0x1c|setX)...)},
		{"stamped bit with an empty timestamp", rawBatch(1, 1, rawEntry(0, stamped, 0)...)},
		{"timestamp without its stamped bit", rawBatch(1, 1, rawEntry(0, setX, 2, 0, 0, 0, 0, 0, 0, 0, 9)...)},
		{"deps bit with an empty dependency section", rawBatch(1, 1, rawEntry(0, flagDeps|setX, 0)...)},
		{"deps bit on a batch entry", rawBatch(1, 1, rawEntry(0, flagDeps|setX)...)},
		{"a label written into bits 5-6", rawBatch(1, 1, rawEntry(0, byte(history.LabelSC|0x18)<<2|setX)...)},
		{"non-minimal seq distance", rawBatch(1, 1, append([]byte{0x80, 0x00}, rawEntry(0, setX)[1:]...)...)},
		{"non-minimal entry count", append(rawBatch(1, 1)[:3], append([]byte{0x81, 0x00}, rawEntry(0, setX)...)...)},
		{"entry cut mid-way", valid[:len(valid)-2]},
		{"non-minimal location field", rawBatch(1, 1, append([]byte{0, setX, 0x81, 0x00}, rawEntry(0, setX)[3:]...)...)},
		{"ordinal beyond 32 bits", rawBatch(1, 1, append(transport.AppendUvarint([]byte{0, setX}, 1<<33), rawEntry(0, setX)[5:]...)...)},
	} {
		if _, err := transport.DecodePayload(KindUpdateBatch, tc.data); err == nil {
			t.Errorf("%s: % x decoded", tc.name, tc.data)
		}
	}
	// A timestamp whose sender is beyond its dimension: From 2, two components.
	from2 := append(transport.AppendUvarint(nil, 2), rawBatch(1, 1, rawEntry(0, stamped, append([]byte{2}, transport.AppendUint64(nil, 0)...)...)...)[1:]...)
	if _, err := transport.DecodePayload(KindUpdateBatch, from2); err == nil {
		t.Errorf("a 2-component timestamp from sender 2 decoded")
	}

	// What the wire cannot carry, Encode refuses.
	for _, b := range []*UpdateBatch{
		{From: 1, FirstSeq: 4, Updates: []Update{{From: 1, Seq: 3, Op: OpSet, Loc: "x"}}},
		{From: 1, FirstSeq: 4, Updates: []Update{{From: 1, Seq: 4, Op: OpSet, Loc: "x", TS: vclock.VC{4, 3}}}},
		{From: 1, FirstSeq: 4, Updates: []Update{{From: 1, Seq: 4, Op: 0, Loc: "x"}}},
		{From: 1, FirstSeq: 4, Updates: []Update{{From: 1, Seq: 4, Op: OpSet, Label: history.LabelSC + 1, Loc: "x"}}},
		{From: 1, FirstSeq: 4, Updates: []Update{
			{From: 1, Seq: 4, Op: OpSet, Loc: "x"}, {From: 1, Seq: 4, Op: OpSet, Loc: "y"}}},
		{From: -1, FirstSeq: 4, Updates: []Update{{From: -1, Seq: 4, Op: OpSet, Loc: "x"}}},
	} {
		if _, err := transport.EncodePayload(nil, KindUpdateBatch, b); err == nil {
			t.Errorf("encoded %+v", *b)
		}
	}
}

// --- scoped-write allocation satellite ---

// TestScopedWriteAllocs pins the allocation cost of the scoped-write fast
// path: destination lists are compiled once at construction, so a write must
// not allocate per-write routing state. The three destinations share one
// update from the node's slab, so the floor is zero; the bound leaves room
// for amortized growth (fabric buffers, receivers running ahead of the
// measurement) that a per-write map or slice would push well past.
func TestScopedWriteAllocs(t *testing.T) {
	f, err := network.New(network.Config{Nodes: 4})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{Readers: map[string][]int{"hot": {1, 2, 3}}}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 4, Transport: f, PRAMOnly: true, Scope: scope})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	v := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		v++
		nodes[0].Write("hot", v)
	})
	// A per-write routing allocation would push past this — keep the bound
	// tight enough to catch its return.
	if allocs > 2 {
		t.Fatalf("scoped write allocates %.1f objects/op, want <= 2", allocs)
	}
}

func BenchmarkScopedCausalWrite(b *testing.B) {
	f, _ := network.New(network.Config{Nodes: 4})
	scope := &ScopeMap{
		Readers:       map[string][]int{"hot": {1, 2, 3}},
		CausalReaders: map[string][]int{"hot": {1, 2, 3}},
	}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 4, Transport: f, Scope: scope})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].Write("hot", int64(i+1))
	}
}

func BenchmarkScopedWrite(b *testing.B) {
	f, _ := network.New(network.Config{Nodes: 4})
	scope := &ScopeMap{Readers: map[string][]int{"hot": {1, 2, 3}}}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 4, Transport: f, PRAMOnly: true, Scope: scope})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].Write("hot", int64(i+1))
	}
}

func BenchmarkBatchedWrite(b *testing.B) {
	f, _ := network.New(network.Config{Nodes: 4})
	batch := BatchConfig{Enabled: true}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i], _ = NewNode(Config{ID: i, N: 4, Transport: f, Batch: batch})
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].Write("hot", int64(i+1))
	}
}
