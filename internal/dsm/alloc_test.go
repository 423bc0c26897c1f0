package dsm

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
	"mixedmem/internal/vclock"
)

// Allocation pins for the write hot path. These use testing.AllocsPerRun,
// which counts process-wide mallocs — the idle recvLoop goroutines of the
// peer nodes run during the measurement — so the pins below hold only
// because those loops are genuinely quiet between flushes. The documented
// floors:
//
//   - steady-state PRAM Write with the outbox on: 0 allocs. The location's
//     cell, its outbox ring slot, and the coalescing index are all warm
//     after the first write; a repeat write updates them in place.
//   - steady-state full-broadcast causal Write: 0 allocs per write. The
//     dependency-clock snapshot (Update.TS) is a slice of the node's
//     timestamp slab, one allocation per slabSize writes.
//   - unbatched Write, PRAM or causal: 0 allocs. The sent update is an
//     element of the node's update pool, so nothing is boxed into
//     network.Message.Payload, a causal write's timestamp rides inside its
//     element, and the receivers hand the element back when they settle it.
//   - outbox flush: 0 allocs per destination message. The *UpdateBatch comes
//     from the outbox's slab and the *Update of a single-entry flush from its
//     update pool (the node's are clock-guarded; a flush holds only
//     outboxMu), and entry slices cycle through the update-slice pool.
//   - batch encode into a reused buffer: 0 allocs.
//   - stateless batch decode: the *UpdateBatch and one string copy per entry
//     that defines its location (the decoder must copy out of the wire
//     buffer, which the transport reuses); the cursor stays on the stack, and
//     the entry slice comes from the update-slice pool and is free once warm.
//   - decode through a connection's decoder (what the tcp receive loop
//     uses): nothing per update or batch that refers to its locations by
//     ordinal, scoped or not — updates (each with its timestamp) come from
//     the connection's pool and return to it when settled, batches, batch
//     entries' timestamps and matrices from the connection's slabs; a
//     definition's name from its name arena.
//   - scoped-causal sends: nothing per write or flush. The address-matrix
//     snapshot comes from the node's matrix slabs; sizing and encoding the
//     sparse matrix allocate nothing. Over tcp, sender to receiver, a batched
//     scoped write costs its share of the slabs on both sides.

// allocCluster builds a quiet two-node cluster for allocation measurements.
func allocCluster(t *testing.T, pramOnly bool, batch BatchConfig) []*Node {
	t.Helper()
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 2, Transport: f, PRAMOnly: pramOnly, Batch: batch})
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

func TestWriteSteadyStateAllocFree(t *testing.T) {
	// A long linger and a huge threshold keep the outbox from flushing
	// during the measurement: we are pinning the enqueue/coalesce path
	// itself, not the flush (measured separately below). PRAMOnly elides
	// per-update timestamps, so a repeat write touches only warm state.
	nodes := allocCluster(t, true, BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour})
	n := nodes[0]
	n.Write("steady", 1) // warm the cell and the ring slot
	var v int64
	allocs := testing.AllocsPerRun(500, func() {
		v++
		n.Write("steady", v)
	})
	if allocs > 0 {
		t.Errorf("steady-state batched PRAM Write: %.3f allocs/op, want 0", allocs)
	}
}

// TestFreshLocationWritesAllocLinear pins the cost of a write to a location
// the node has never seen — the insert path of the node's one location table.
// The pin counts, it does not time: N fresh PRAM writes on a single-node
// system cost what the table's doublings cost, three allocations each
// (loctab.Doublings), and nothing per write; the bytes allocated must grow
// linearly in N. A table per shard pays its own doublings, about twenty times
// as many allocations at N = 16384, and a table that copies itself per insert
// fails the byte bounds by orders of magnitude.
func TestFreshLocationWritesAllocLinear(t *testing.T) {
	measure := func(count int) (mallocs, bytes float64) {
		f, err := network.New(network.Config{Nodes: 1})
		if err != nil {
			t.Fatalf("network.New: %v", err)
		}
		n, err := NewNode(Config{ID: 0, N: 1, Transport: f, PRAMOnly: true})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer func() {
			f.Close()
			n.Close()
		}()
		names := make([]string, count)
		for i := range names {
			names[i] = fmt.Sprintf("L[%d][%d]", i/128, i%128)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, name := range names {
			n.Write(name, int64(i))
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	// The counters are process-wide: another goroutine — an earlier test's
	// nodes winding down — can allocate during a measurement, which only ever
	// adds to it. Each figure is the least of three measurements.
	least := func(count int) (mallocs, bytes float64) {
		mallocs, bytes = measure(count)
		for i := 1; i < 3; i++ {
			m, b := measure(count)
			mallocs, bytes = min(mallocs, m), min(bytes, b)
		}
		return mallocs, bytes
	}
	const total = 1 << 14
	quarterMallocs, quarterBytes := least(total / 4)
	mallocs, bytes := least(total)
	if limit := 3 * loctab.Doublings(total); mallocs > float64(limit) {
		t.Errorf("%d fresh-location PRAM writes: %.0f allocs, want <= %d (three per doubling of one table)",
			total, mallocs, limit)
	}
	if perOp := bytes / total; perOp > 256 {
		t.Errorf("fresh-location PRAM write: %.0f bytes/op over %d writes, want <= 256", perOp, total)
	}
	// Four times the locations may cost four times the memory, plus slack for
	// where the doublings fall — never the sixteen times of a per-insert copy.
	if ratio := bytes / quarterBytes; ratio > 6 {
		t.Errorf("allocated bytes grew %.1fx for 4x the locations (%.0f -> %.0f): not linear",
			ratio, quarterBytes, bytes)
	}
	if ratio := mallocs / quarterMallocs; ratio > 6 {
		t.Errorf("allocations grew %.1fx for 4x the locations (%.0f -> %.0f): not linear",
			ratio, quarterMallocs, mallocs)
	}
}

func TestWriteCausalSteadyStateAllocFloor(t *testing.T) {
	// Full-broadcast causal writes carry a dependency-clock snapshot
	// (Update.TS) taken per write under the clock lock — the coalesced
	// outbox entry may outlive later clock bumps, and an in-flight batch
	// shares the slice through the simulated fabric, so a snapshot cannot
	// be reused in place. It is carved from the node's timestamp slab, one
	// allocation per slabSize writes, which AllocsPerRun's integer average
	// reports as the floor: zero per steady-state causal write.
	nodes := allocCluster(t, false, BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour})
	n := nodes[0]
	n.Write("steady", 1)
	var v int64
	allocs := testing.AllocsPerRun(500, func() {
		v++
		n.Write("steady", v)
	})
	if allocs > 0 {
		t.Errorf("steady-state batched causal Write: %.3f allocs/op, want 0 (the TS snapshot comes from the slab)", allocs)
	}
}

// TestWriteCausalUnbatchedAllocFloor pins an unbatched full-broadcast causal
// write at no allocation: the sent update carries its timestamp inside its
// element of the node's pool, and the two peers, applying and settling it,
// release their references, so k slabs' worth of writes cost nothing once the
// pool is warm. An element nobody hands back costs k allocations (a slab
// carved per slabSize writes), and carving the update and its stamp apart
// costs 2k.
func TestWriteCausalUnbatchedAllocFloor(t *testing.T) {
	nodes, _ := batchedCluster(t, 3, BatchConfig{})
	n := nodes[0]
	min := make([]uint64, 3)
	var v int64
	writeSlab := func() {
		for i := 0; i < slabSize; i++ {
			v++
			n.Write("steady", v)
		}
		min[0] += slabSize
		nodes[1].WaitCausalApplied(min)
		nodes[2].WaitCausalApplied(min)
	}
	writeSlab() // warm the cells, the fabric's buffers and the pool
	const k = 50
	if allocs := testing.AllocsPerRun(k, writeSlab); allocs != 0 {
		t.Errorf("%d slabs of unbatched causal writes: %.0f allocs, want 0", k, allocs*k)
	}
}

func TestOutboxFlushAllocFloor(t *testing.T) {
	nodes := allocCluster(t, true, BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour})
	n := nodes[0]
	// Warm everything: cells, ring slots, the pooled update slice, and the
	// receiver's apply path for both locations.
	n.Write("a", 1)
	n.Write("b", 1)
	n.FlushUpdates()
	// Wait for each flush to be applied before the next one: the pooled
	// entry slice is recycled by the receiver's applier, and the pin is
	// about the steady-state cycle, not a transient pool miss while a
	// batch is in flight.
	min := make([]uint64, 2)
	min[0] = n.SentSeqs(nil)[1]
	nodes[1].WaitReceived(min)
	var v int64
	allocs := testing.AllocsPerRun(200, func() {
		v++
		n.Write("a", v)
		n.Write("b", v)
		n.FlushUpdates()
		min[0] += 2
		nodes[1].WaitReceived(min)
	})
	// Floor: nothing. The *UpdateBatch comes from the outbox's slab, one
	// allocation per slabSize flushes, and the entry slice cycles through the
	// update-slice pool (the receiver's applier recycles it). AllocsPerRun
	// reports the integer average, so a payload allocated per flush again
	// reads 1.
	if allocs > 0 {
		t.Errorf("two-write flush: %.3f allocs/op, want 0 (the payload comes from the outbox's slab)", allocs)
	}
}

func TestBatchEncodeAllocFree(t *testing.T) {
	b := &UpdateBatch{From: 1, FirstSeq: 1, Updates: []Update{
		{From: 1, Seq: 1, Op: OpSet, Loc: "alpha", Ordinal: 0, Defines: true, Value: 10},
		{From: 1, Seq: 2, Op: OpSet, Loc: "beta", Ordinal: 1, Defines: true, Value: 20},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "gamma", Ordinal: 2, Defines: true, Value: 30},
		{From: 1, Seq: 4, Op: OpSet, Loc: "delta", Ordinal: 3, Defines: true, Value: 40},
	}}
	var payload any = b // box once, outside the measured region
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(500, func() {
		var err error
		buf, err = batchCodec{}.Encode(buf[:0], payload)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
	})
	if allocs > 0 {
		t.Errorf("batch encode into reused buffer: %.3f allocs/op, want 0", allocs)
	}
}

func TestBatchDecodeAllocFloor(t *testing.T) {
	b := &UpdateBatch{From: 1, FirstSeq: 1, Updates: []Update{
		{From: 1, Seq: 1, Op: OpSet, Loc: "alpha", Ordinal: 0, Defines: true, Value: 10},
		{From: 1, Seq: 2, Op: OpSet, Loc: "beta", Ordinal: 1, Defines: true, Value: 20},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "gamma", Ordinal: 2, Defines: true, Value: 30},
		{From: 1, Seq: 4, Op: OpSet, Loc: "delta", Ordinal: 3, Defines: true, Value: 40},
	}}
	wire, err := batchCodec{}.Encode(nil, b)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := (batchCodec{}).Decode(wire); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	})
	// Floor: the returned *UpdateBatch, its entry slice, and one name chunk
	// the 4 entries' location names are copied into (each entry defines its
	// location; the decoder must copy out of the wire buffer, which the caller
	// reuses). The cursor and the arena stay on the stack.
	const floor = 3.0
	if allocs > floor {
		t.Errorf("4-entry batch decode: %.3f allocs/op, want <= %.1f (the batch, its entries and one name chunk)", allocs, floor)
	}
}

// TestPooledEncodeBufferAllocFree pins the transport-level encode entry
// point the tcp sender uses: EncodePayload into a warm pooled buffer.
func TestPooledEncodeBufferAllocFree(t *testing.T) {
	var payload any = &Update{From: 0, Seq: 9, Op: OpSet, Loc: "loc", Value: 7}
	// Warm the pool with a buffer big enough for the frame.
	transport.PutBuf(make([]byte, 0, 1024))
	allocs := testing.AllocsPerRun(500, func() {
		buf, err := transport.EncodePayload(transport.GetBuf(), KindUpdate, payload)
		if err != nil {
			t.Fatalf("EncodePayload: %v", err)
		}
		transport.PutBuf(buf)
	})
	if allocs > 0 {
		t.Errorf("EncodePayload into pooled buffer: %.3f allocs/op, want 0", allocs)
	}
}

// scopedAllocPair builds a quiet two-node cluster in which node 0's location
// "s" is a causal scope read by node 1: the placement whose writes carry a
// dependency matrix.
func scopedAllocPair(t *testing.T, batch BatchConfig) []*Node {
	t.Helper()
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{
		Readers:       map[string][]int{"s": {1}},
		CausalReaders: map[string][]int{"s": {1}},
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 2, Transport: f, Scope: scope, Batch: batch})
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

// TestScopedSendAllocFloor pins the two scoped-causal send paths at nothing per
// write. The address-matrix snapshot every scoped write takes under the clock
// lock is carved from the node's matrix slabs (row headers and words, two
// allocations per slabSize writes), and a flush's payload from the outbox's
// slab. Sizing the message (Matrix.
// ActiveEncodedSize) counts the active indices without listing them.
// AllocsPerRun reports the integer average, so a snapshot cloned per write
// again reads 2.
func TestScopedSendAllocFloor(t *testing.T) {
	t.Run("singleton", func(t *testing.T) {
		nodes := scopedAllocPair(t, BatchConfig{})
		n := nodes[0]
		n.Write("s", 1)
		min := []uint64{1, 0}
		nodes[1].WaitReceived(min)
		var v int64 = 1
		allocs := testing.AllocsPerRun(300, func() {
			v++
			n.Write("s", v)
			min[0]++
			nodes[1].WaitReceived(min)
		})
		if allocs > 0 {
			t.Errorf("scoped singleton send: %.2f allocs/op, want 0 (the snapshot comes from the matrix slabs)", allocs)
		}
	})
	t.Run("batch flush", func(t *testing.T) {
		nodes := scopedAllocPair(t, BatchConfig{Enabled: true, MaxUpdates: 1 << 20, Linger: time.Hour})
		n := nodes[0]
		n.Write("s", 1)
		n.FlushUpdates()
		min := []uint64{1, 0}
		nodes[1].WaitReceived(min)
		var v int64 = 1
		allocs := testing.AllocsPerRun(300, func() {
			v++
			n.Write("s", v)
			n.FlushUpdates()
			min[0]++
			nodes[1].WaitReceived(min)
		})
		if allocs > 0 {
			t.Errorf("scoped one-write flush: %.2f allocs/op, want 0 (the snapshot and the payload come from slabs)", allocs)
		}
	})
}

// TestScopedBatchedTCPWriteAllocFloor pins a batched scoped-causal write over
// real sockets, sender to receiver: the snapshots and flushed batches come
// from the sender's slabs, the decoded batches and matrices from the
// connection's, and entry slices cycle through the update-slice pool — the
// sender's back through the tcp recycler once the frame is encoded, the
// receiver's once the batch settles. The outbox flushes every four writes, so
// a recycler that misses its payload type costs an entry slice per four writes
// and fails the pin.
func TestScopedBatchedTCPWriteAllocFloor(t *testing.T) {
	trs, err := tcp.NewLoopback(2, nil)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	locs := []string{"s0", "s1", "s2", "s3"}
	scope := &ScopeMap{Readers: map[string][]int{}, CausalReaders: map[string][]int{}}
	for _, loc := range locs {
		scope.Readers[loc], scope.CausalReaders[loc] = []int{1}, []int{1}
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 2, Transport: trs[i], Scope: scope,
			Batch: BatchConfig{Enabled: true, MaxUpdates: len(locs), Linger: time.Hour}})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Close()
		}
	})
	n := nodes[0]
	min := []uint64{0, 0}
	var v int64
	writeSlab := func() {
		for i := 0; i < slabSize; i++ {
			v++
			n.Write(locs[i%len(locs)], v)
		}
		n.FlushUpdates()
		min[0] += slabSize
		nodes[1].WaitReceived(min)
	}
	writeSlab() // warm the connection, its decoder and the pool
	writeSlab()
	allocs := testing.AllocsPerRun(50, writeSlab)
	if perWrite := allocs / slabSize; perWrite > 0.1 {
		t.Errorf("batched scoped write over tcp: %.3f allocs/write, want <= 0.1 (slabs only)", perWrite)
	}
}

// TestScopedEncodeAllocFree: encoding scoped-causal metadata into a reused
// buffer allocates nothing — the matrix's active set is found once per encode,
// into a stack buffer.
func TestScopedEncodeAllocFree(t *testing.T) {
	deps := vclock.NewMatrix(6)
	deps.Set(1, 4, 9)
	deps.Set(4, 1, 3)
	var update any = &Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 7, Deps: deps}
	var batch any = &UpdateBatch{From: 1, FirstSeq: 8, Deps: deps, Updates: []Update{
		{From: 1, Seq: 8, Op: OpSet, Loc: "s", Value: 1},
		{From: 1, Seq: 9, Op: OpAdd, Loc: "t", Value: 2},
	}}
	buf := make([]byte, 0, 1024)
	for _, tc := range []struct {
		kind    string
		payload any
		size    int
	}{
		{KindUpdate, update, update.(*Update).encodedSize()},
		{KindUpdateBatch, batch, batch.(*UpdateBatch).encodedSize()},
	} {
		allocs := testing.AllocsPerRun(500, func() {
			var err error
			if buf, err = transport.EncodePayload(buf[:0], tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 || len(buf) != tc.size {
			t.Errorf("%s with a dependency matrix: %.1f allocs/op, %d bytes (encodedSize says %d); want 0 and equal",
				tc.kind, allocs, len(buf), tc.size)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() { _ = update.(*Update).encodedSize() }); allocs > 0 {
		t.Errorf("sizing a scoped update: %.1f allocs/op, want 0", allocs)
	}
}

// TestConnDecodeAllocFloor pins what a connection's decoder allocates per
// payload that refers to its locations by ordinal, scoped or not, once the
// receiver lets go of what it decoded: the *Update comes back to the
// connection's pool, so a decoded update, its timestamp riding in its element,
// costs nothing. The *UpdateBatch, the timestamps of batch entries and the
// dependency matrix come from slabs, one allocation each per slabSize; the
// entry slice of a batch from the update-slice pool. A definition's name comes
// from the connection's name arena, one allocation per chunk
// (TestConnDecodeDefinitionAllocFree).
func TestConnDecodeAllocFloor(t *testing.T) {
	deps := vclock.NewMatrix(3)
	deps.Set(0, 1, 2)
	deps.Set(2, 1, 3)
	entries := []Update{
		{From: 1, Seq: 1, Op: OpSet, Ordinal: 0, Value: 10},
		{From: 1, Seq: 2, Op: OpSet, Ordinal: 1, Value: 20},
		{From: 1, Seq: 3, Op: OpAdd, Ordinal: 2, Value: 30},
		{From: 1, Seq: 4, Op: OpSet, Ordinal: 3, Value: 40},
	}
	for _, tc := range []struct {
		name    string
		kind    string
		payload any
		limit   float64 // allocations per decode
	}{
		{"update", KindUpdate, &Update{From: 1, Seq: 3, Op: OpSet, Ordinal: 2, Value: 10, TS: vclock.VC{1, 3, 4}}, 0},
		{"defining update", KindUpdate, &Update{From: 1, Seq: 3, Op: OpSet, Loc: "alpha", Ordinal: 2, Defines: true, Value: 10, TS: vclock.VC{1, 3, 4}}, float64(len("alpha")) / loctab.ArenaChunk},
		{"scoped update", KindUpdate, &Update{From: 1, Seq: 3, Op: OpSet, Ordinal: 2, Value: 10, Deps: deps}, 2.0 / slabSize}, // the matrix slabs
		{"4-entry batch", KindUpdateBatch, &UpdateBatch{From: 1, FirstSeq: 1, Updates: entries}, 0},
		{"4-entry scoped batch", KindUpdateBatch, &UpdateBatch{From: 1, FirstSeq: 1, Deps: deps, Updates: entries}, 0.05},
	} {
		wire, err := transport.EncodePayload(nil, tc.kind, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		codec := transport.ConnCodec(updateCodec{})
		if tc.kind == KindUpdateBatch {
			codec = batchCodec{}
		}
		decode := codec.NewConnDecoder(3)
		decodeOne := func() any {
			got, err := decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		// What the receiving node does once the payload has settled.
		settle := func(got any) {
			switch p := got.(type) {
			case *Update:
				p.release()
			case *UpdateBatch:
				p.release()
			}
		}
		// The first decode warms the pool.
		got := decodeOne()
		if tc.kind == KindUpdate && !reflect.DeepEqual(valueOf(got), tc.payload) {
			t.Fatalf("%s: decoded %+v, want %+v", tc.name, got, tc.payload)
		}
		settle(got)
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < slabSize; i++ {
				settle(decodeOne())
			}
		})
		if perDecode := allocs / slabSize; perDecode > tc.limit {
			t.Errorf("connection %s decode: %.3f allocs/op, want <= %.3f", tc.name, perDecode, tc.limit)
		}
	}
}

// TestConnDecodeDefinitionAllocFree: decoding a definition allocates nothing
// while the connection's update or batch slab and its name arena's chunk have
// room — the name is carved from the chunk, not a string of its own. The
// first decode carves the slab and the chunk, and the measured decodes (and
// AllocsPerRun's warm-up) fill the rest of that one slab.
func TestConnDecodeDefinitionAllocFree(t *testing.T) {
	batch := &UpdateBatch{From: 1, FirstSeq: 1}
	for i := range 4 {
		batch.Updates = append(batch.Updates, Update{From: 1, Seq: uint64(i + 1), Op: OpSet,
			Loc: fmt.Sprintf("cell/%d", i), Ordinal: uint32(i), Defines: true, Value: int64(i)})
	}
	for _, tc := range []struct {
		kind    string
		codec   transport.ConnCodec
		payload any
	}{
		{KindUpdate, updateCodec{}, &Update{From: 1, Seq: 3, Op: OpSet, Loc: "alpha", Ordinal: 2, Defines: true, Value: 10, TS: vclock.VC{1, 3, 4}}},
		{KindUpdateBatch, batchCodec{}, batch},
	} {
		wire, err := transport.EncodePayload(nil, tc.kind, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		decode := tc.codec.NewConnDecoder(3)
		decodeOne := func() {
			got, err := decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := got.(*UpdateBatch); ok {
				b.release()
			}
		}
		decodeOne()
		if allocs := testing.AllocsPerRun(slabSize-2, decodeOne); allocs != 0 {
			t.Errorf("%s: decoding a definition costs %.0f allocs with room in the slab and the name chunk, want 0", tc.kind, allocs)
		}
	}
}

// TestBatchElementsKeepTheirCapacity: a batch element keeps its entries' and
// stamps' capacity from one use to the next, so a connection whose elements
// carried one-entry batches — a peer's, say — allocates for a steady stream of
// larger batches once, when an element first grows, not once per batch.
func TestBatchElementsKeepTheirCapacity(t *testing.T) {
	wire := func(entries int) []byte {
		b := &UpdateBatch{From: 1, FirstSeq: 1}
		for i := range entries {
			b.Updates = append(b.Updates, Update{From: 1, Seq: uint64(i + 1), Op: OpSet,
				Ordinal: uint32(i), Value: int64(i), TS: vclock.VC{0, uint64(i + 1), 0}})
		}
		enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	decode := batchCodec{}.NewConnDecoder(3)
	settle := func(data []byte) {
		got, err := decode(data)
		if err != nil {
			t.Fatal(err)
		}
		got.(*UpdateBatch).release()
	}
	small, large := wire(1), wire(32)
	for range 2 * slabSize {
		settle(small)
	}
	settle(large) // the one growth
	if allocs := testing.AllocsPerRun(100, func() { settle(large) }); allocs != 0 {
		t.Errorf("32-entry batches through elements that carried 1-entry ones: %.1f allocs per decode, want 0", allocs)
	}
}
