package dsm

import (
	"testing"
	"time"

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
	if c := n.shard(h).lookup(h, loc); c != nil {
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
	nodes[0].FlushUpdates()
	nodes[1].WaitReceived([]uint64{3, 0, 0})
	nodes[2].WaitReceived([]uint64{2, 0, 0})
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
	ob2 := nodes[0].outbox[2]
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
	go func() {
		nodes[1].WaitCausalApplied([]uint64{2, 0, 1})
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

	bad := &Update{From: 0, Seq: 1, Op: OpSet, Loc: "a", Value: 7,
		Deps: vclock.NewMatrix(5)} // wrong dimension for a 2-node system
	if err := f.Send(network.Message{
		From: 0, To: 1, Kind: KindUpdate, Payload: bad, Size: bad.encodedSize(),
	}); err != nil {
		t.Fatal(err)
	}
	badBatch := &UpdateBatch{
		From: 0, FirstSeq: 2, Count: 2, PrevSeq: 1, Deps: vclock.NewMatrix(5),
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
	// byte for byte, including the always-present depsN length prefix.
	deps := vclock.NewMatrix(3)
	deps.Set(1, 0, 4)
	ts := vclock.New(3)
	ts[0], ts[2] = 2, 5
	updates := []Update{
		{From: 1, Seq: 3, Op: OpSet, Loc: "x[2]", Value: -9},
		{From: 1, Seq: 3, Op: OpSet, Loc: "x[2]", Value: -9, TS: ts},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "", Value: 1, PrevSeq: 2, Deps: deps},
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
		{From: 1, FirstSeq: 3, Count: 2, Updates: updates[:2]},
		{From: 1, FirstSeq: 3, Count: 2, PrevSeq: 2, Deps: deps,
			Updates: []Update{{From: 1, Seq: 3, Op: OpSet, Loc: "y", Value: 1}}},
		// Mixed obligations: the elided flag rides in the Op byte, so it
		// costs nothing.
		{From: 1, FirstSeq: 3, Count: 4, PrevSeq: 2, Deps: deps, Updates: []Update{
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

func TestBatchConfigValidation(t *testing.T) {
	c := BatchConfig{Enabled: true}.WithDefaults()
	if c.MaxUpdates <= 0 || c.MaxBytes <= 0 || c.Linger <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

// --- KindUpdateBatch codec ---

func TestBatchCodecRoundTrip(t *testing.T) {
	ts1 := vclock.New(3)
	ts1[0], ts1[2] = 4, 17
	ts2 := vclock.New(3)
	ts2[0], ts2[2] = 6, 17
	b := &UpdateBatch{
		From: 2, FirstSeq: 4, Count: 3,
		Updates: []Update{
			{From: 2, Seq: 4, Op: OpSet, Loc: "x[3]", Value: -12345, TS: ts1},
			{From: 2, Seq: 5, Op: OpAddFloat, Loc: "p", Value: 1, elided: true},
			{From: 2, Seq: 6, Op: OpAdd, Loc: "", Value: 7, TS: ts2},
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
	if got.From != 2 || got.FirstSeq != 4 || got.Count != 3 || len(got.Updates) != 3 {
		t.Fatalf("header changed: %+v", got)
	}
	for i, u := range got.Updates {
		want := b.Updates[i]
		if u.From != want.From || u.Seq != want.Seq || u.Op != want.Op ||
			u.Loc != want.Loc || u.Value != want.Value || u.elided != want.elided {
			t.Fatalf("entry %d changed: %+v -> %+v", i, want, u)
		}
	}
	if got.Updates[2].TS.Len() != 3 || got.Updates[2].TS[0] != 6 {
		t.Fatalf("entry timestamp changed: %v", got.Updates[2].TS)
	}
}

func TestBatchCodecEmptyAndNilTimestamps(t *testing.T) {
	b := &UpdateBatch{From: 0, FirstSeq: 1, Count: 2, Updates: []Update{
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

func TestBatchCodecMalformed(t *testing.T) {
	if _, err := transport.EncodePayload(nil, KindUpdateBatch, "nope"); err == nil {
		t.Fatal("encoding a non-batch payload succeeded")
	}
	// One payload type for the kind: the value form is not it.
	if _, err := transport.EncodePayload(nil, KindUpdateBatch, UpdateBatch{}); err == nil {
		t.Fatal("encoding an UpdateBatch value (not *UpdateBatch) succeeded")
	}
	// Truncated header.
	if _, err := transport.DecodePayload(KindUpdateBatch, []byte{1, 2, 3}); err == nil {
		t.Fatal("decoding a truncated batch header succeeded")
	}
	// A huge claimed entry count must fail fast, not allocate.
	var huge []byte
	huge = transport.AppendUint32(huge, 0)          // From
	huge = transport.AppendUint64(huge, 1)          // FirstSeq
	huge = transport.AppendUint64(huge, 1<<40)      // Count
	huge = transport.AppendUint32(huge, 0)          // depsN
	huge = transport.AppendUint32(huge, 0xFFFFFFFF) // nEntries
	if _, err := transport.DecodePayload(KindUpdateBatch, huge); err == nil {
		t.Fatal("decoding a batch with absurd entry count succeeded")
	}
	// A huge claimed dependency-matrix dimension must fail fast too: the
	// quadratic allocation it implies is exactly what the bound prevents.
	var badDeps []byte
	badDeps = transport.AppendUint32(badDeps, 0)          // From
	badDeps = transport.AppendUint64(badDeps, 1)          // FirstSeq
	badDeps = transport.AppendUint64(badDeps, 1)          // Count
	badDeps = transport.AppendUint32(badDeps, 0xFFFFFFF0) // depsN
	if _, err := transport.DecodePayload(KindUpdateBatch, badDeps); err == nil {
		t.Fatal("decoding a batch with absurd dependency dimension succeeded")
	}
	// A plausible dimension with no matrix bytes behind it.
	badDeps = badDeps[:len(badDeps)-4]
	badDeps = transport.AppendUint32(badDeps, 3) // depsN, but no matrix follows
	if _, err := transport.DecodePayload(KindUpdateBatch, badDeps); err == nil {
		t.Fatal("decoding a truncated dependency matrix succeeded")
	}
	// A huge claimed timestamp length inside an entry must fail fast too.
	var badTS []byte
	badTS = transport.AppendUint32(badTS, 0) // From
	badTS = transport.AppendUint64(badTS, 1) // FirstSeq
	badTS = transport.AppendUint64(badTS, 1) // Count
	badTS = transport.AppendUint32(badTS, 0) // depsN
	badTS = transport.AppendUint32(badTS, 1) // nEntries
	badTS = transport.AppendUint64(badTS, 1) // Seq
	badTS = append(badTS, byte(OpSet))       // Op
	badTS = transport.AppendString(badTS, "x")
	badTS = transport.AppendUint64(badTS, 5)          // Value
	badTS = transport.AppendUint32(badTS, 0x7FFFFFFF) // tsLen
	if _, err := transport.DecodePayload(KindUpdateBatch, badTS); err == nil {
		t.Fatal("decoding a batch with absurd timestamp length succeeded")
	}
	// An Op byte with a bit that is neither the elided flag nor an op's.
	for _, op := range []byte{0x40 | byte(OpSet), 0x04 | byte(OpAdd), 0x80 | 0x20} {
		var unknown []byte
		unknown = transport.AppendUint32(unknown, 0) // From
		unknown = transport.AppendUint64(unknown, 1) // FirstSeq
		unknown = transport.AppendUint64(unknown, 1) // Count
		unknown = transport.AppendUint32(unknown, 0) // depsN
		unknown = transport.AppendUint32(unknown, 1) // nEntries
		unknown = transport.AppendUint64(unknown, 1) // Seq
		unknown = append(unknown, op, 0)             // Op, Label
		unknown = transport.AppendString(unknown, "x")
		unknown = transport.AppendUint64(unknown, 5) // Value
		unknown = transport.AppendUint32(unknown, 0) // tsLen
		if _, err := transport.DecodePayload(KindUpdateBatch, unknown); err == nil {
			t.Fatalf("decoding an entry whose op byte is %#02x succeeded", op)
		}
	}
	// An entry truncated mid-way.
	var cut []byte
	cut = transport.AppendUint32(cut, 0)
	cut = transport.AppendUint64(cut, 1)
	cut = transport.AppendUint64(cut, 1)
	cut = transport.AppendUint32(cut, 0)
	cut = transport.AppendUint32(cut, 1)
	cut = transport.AppendUint64(cut, 1)
	cut = append(cut, byte(OpSet))
	if _, err := transport.DecodePayload(KindUpdateBatch, cut); err == nil {
		t.Fatal("decoding a mid-entry truncation succeeded")
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
