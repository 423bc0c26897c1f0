package dsm

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
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
//   - unbatched Write, PRAM or causal: 0 allocs per write. The sent update
//     is a pointer into the node's update slab, so nothing is boxed into
//     network.Message.Payload (slab_test.go pins both slabs per slabSize
//     writes).
//   - outbox flush: one allocation per destination message (the UpdateBatch
//     boxed into network.Message.Payload, or the *Update of a single-entry
//     flush, which cannot use the clock-guarded slab); entry slices cycle
//     through the update-slice pool.
//   - batch encode into a reused buffer: 0 allocs.
//   - stateless batch decode: the decoder state, one boxing of the returned
//     UpdateBatch, and one string copy per entry location (the decoder
//     must copy out of the wire buffer, which the transport reuses); the
//     entry slice comes from the update-slice pool and is free once warm.
//   - decode through a connection's decoder (what the tcp receive loop
//     uses): nothing per update, and for a batch the decoder state and the
//     boxing only — locations come from the connection's string cache.
//   - scoped-causal sends: the address-matrix snapshot (Matrix.Clone, two
//     allocations) per write, plus the boxing per flush. Sizing and encoding
//     the sparse matrix allocate nothing.

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
// the node has never seen — the insert path of the shard tables. The pin
// counts, it does not time: N fresh PRAM writes on a single-node system may
// cost at most 3 allocations each (the table entry plus amortised slot-array
// doublings), and the bytes allocated must grow linearly in N. A table that
// copies itself per insert fails both by orders of magnitude.
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
	const total = 1 << 14
	quarterMallocs, quarterBytes := measure(total / 4)
	mallocs, bytes := measure(total)
	if perOp := mallocs / total; perOp > 3 {
		t.Errorf("fresh-location PRAM write: %.2f allocs/op over %d writes, want <= 3", perOp, total)
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
	min[0] = n.SentCounts(nil)[1]
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
	// Floor: one UpdateBatch boxing for the single remote destination; the
	// entry slice cycles through the update-slice pool (the receiver's
	// applier recycles it). The applier runs concurrently and its
	// occasional amortized growth lands in the same process-wide counter,
	// so allow a fraction above the floor rather than pinning exactly.
	const floor = 1.0
	if allocs > floor+0.5 {
		t.Errorf("two-write flush: %.3f allocs/op, want <= %.1f (one payload boxing per destination message)", allocs, floor+0.5)
	}
}

func TestBatchEncodeAllocFree(t *testing.T) {
	b := UpdateBatch{From: 1, FirstSeq: 1, Count: 4, Updates: []Update{
		{From: 1, Seq: 1, Op: OpSet, Loc: "alpha", Value: 10},
		{From: 1, Seq: 2, Op: OpSet, Loc: "beta", Value: 20},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "gamma", Value: 30},
		{From: 1, Seq: 4, Op: OpSet, Loc: "delta", Value: 40},
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
	b := UpdateBatch{From: 1, FirstSeq: 1, Count: 4, Updates: []Update{
		{From: 1, Seq: 1, Op: OpSet, Loc: "alpha", Value: 10},
		{From: 1, Seq: 2, Op: OpSet, Loc: "beta", Value: 20},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "gamma", Value: 30},
		{From: 1, Seq: 4, Op: OpSet, Loc: "delta", Value: 40},
	}}
	wire, err := batchCodec{}.Encode(nil, b)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Warm the update-slice pool.
	got, err := batchCodec{}.Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	putUpdateSlice(got.(UpdateBatch).Updates)
	allocs := testing.AllocsPerRun(500, func() {
		got, err := batchCodec{}.Decode(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		putUpdateSlice(got.(UpdateBatch).Updates)
	})
	// Floor: the decoder state (one *Decoder), 1 boxing of the returned
	// UpdateBatch, and 4 location string copies (one per entry; the
	// decoder must copy out of the wire buffer, which the caller reuses).
	const floor = 6.0
	if allocs > floor {
		t.Errorf("4-entry batch decode: %.3f allocs/op, want <= %.1f (decoder + result boxing + one Loc copy per entry)", allocs, floor)
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
// chain pointer and a dependency matrix.
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

// TestScopedSendAllocFloor pins the two scoped-causal send paths. What is left
// is the address-matrix snapshot every scoped write takes under the clock lock
// (Matrix.Clone: the row headers and the backing, two allocations) and, for a
// flush, the boxing of the UpdateBatch. Sizing the message (Matrix.
// ActiveEncodedSize) counts the active indices without listing them; it used
// to allocate the list.
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
		if allocs > 2 {
			t.Errorf("scoped singleton send: %.2f allocs/op, want <= 2 (the matrix snapshot)", allocs)
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
		if allocs > 3.5 {
			t.Errorf("scoped one-write flush: %.2f allocs/op, want <= 3.5 (the matrix snapshot and the payload boxing)", allocs)
		}
	})
}

// TestScopedEncodeAllocFree: encoding scoped-causal metadata into a reused
// buffer allocates nothing — the matrix's active set is found once per encode,
// into a stack buffer.
func TestScopedEncodeAllocFree(t *testing.T) {
	deps := vclock.NewMatrix(6)
	deps.Set(1, 4, 9)
	deps.Set(4, 1, 3)
	var update any = &Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 7, PrevSeq: 8, Deps: deps}
	var batch any = UpdateBatch{From: 1, FirstSeq: 8, Count: 2, PrevSeq: 7, Deps: deps, Updates: []Update{
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
		{KindUpdateBatch, batch, batch.(UpdateBatch).encodedSize()},
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
// payload once it has seen the locations: nothing for an update (the *Update
// and its timestamp come from slabs, one allocation per slabSize, the
// location from the cache), and for a batch the transport.Decoder cursor and
// the boxing of the UpdateBatch — not a string per entry.
func TestConnDecodeAllocFloor(t *testing.T) {
	u := &Update{From: 1, Seq: 3, Op: OpSet, Loc: "alpha", Value: 10, TS: vclock.VC{3, 1, 4}}
	wire, err := updateCodec{}.Encode(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	decode := updateCodec{}.NewConnDecoder()
	var got any
	// Whole slabs, so the average is the slab cost and not where a run ends.
	allocs := testing.AllocsPerRun(10*slabSize, func() {
		if got, err = decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, u) {
		t.Fatalf("decoded %+v, want %+v", got, u)
	}
	if allocs > 0.05 {
		t.Errorf("connection update decode: %.3f allocs/op, want ~2/%d", allocs, slabSize)
	}

	b := UpdateBatch{From: 1, FirstSeq: 1, Count: 4, Updates: []Update{
		{From: 1, Seq: 1, Op: OpSet, Loc: "alpha", Value: 10},
		{From: 1, Seq: 2, Op: OpSet, Loc: "beta", Value: 20},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "gamma", Value: 30},
		{From: 1, Seq: 4, Op: OpSet, Loc: "delta", Value: 40},
	}}
	if wire, err = (batchCodec{}).Encode(nil, b); err != nil {
		t.Fatal(err)
	}
	decode = batchCodec{}.NewConnDecoder()
	allocs = testing.AllocsPerRun(500, func() {
		got, err := decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		putUpdateSlice(got.(UpdateBatch).Updates)
	})
	if allocs > 2 {
		t.Errorf("connection 4-entry batch decode: %.2f allocs/op, want <= 2 (decoder cursor + result boxing)", allocs)
	}
}
