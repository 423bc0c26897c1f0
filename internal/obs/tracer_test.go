package obs

import (
	"fmt"
	"sync"
	"testing"

	"mixedmem/internal/loctab"
)

// intern is RecordLoc's interning step on its own.
func intern(tr *Tracer, name string) uint32 { return tr.locHash(loctab.Hash(name), name) }

// TestTracerRecordSnapshot checks the basic contract: events come back in
// record order with their fields intact and the intern table resolving.
func TestTracerRecordSnapshot(t *testing.T) {
	tr := NewTracer(3, 128)
	if tr.Capacity() != 128 {
		t.Fatalf("capacity = %d, want 128", tr.Capacity())
	}
	locX := intern(tr, "x")
	locY := intern(tr, "y")
	if locX == locY {
		t.Fatalf("distinct locations interned to the same index %d", locX)
	}
	if got := intern(tr, "x"); got != locX {
		t.Fatalf("re-interning x: %d, want %d", got, locX)
	}
	tr.Record(EvWriteIssue, 2, 0, locX, 7, 3, 0)
	tr.Record(EvApply, 0, 1, locY, 9, 0, 0)
	tr.RecordLoc(EvAwaitEnd, 2, 1, "x", 7, 1234, 0)

	s := tr.Snapshot()
	if s.Node != 3 || s.Recorded != 3 || s.Dropped != 0 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(s.Events))
	}
	for i, e := range s.Events {
		if e.Index != uint64(i) {
			t.Fatalf("event %d has index %d", i, e.Index)
		}
		if e.Time == 0 {
			t.Fatalf("event %d has zero time", i)
		}
	}
	e := s.Events[0]
	if e.Type != EvWriteIssue || e.Label != 2 || e.Seq != 7 || e.A != 3 || s.LocName(e.Loc) != "x" {
		t.Fatalf("event 0 = %+v", e)
	}
	if aw := s.Events[2]; aw.Type != EvAwaitEnd || aw.Peer != 1 || s.LocName(aw.Loc) != "x" {
		t.Fatalf("event 2 = %+v", aw)
	}
}

// TestTracerNil checks the off-by-default contract: every method of a nil
// tracer is a no-op.
func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Record(EvApply, 0, 0, 0, 0, 0, 0)
	tr.RecordLoc(EvApply, 0, 0, "x", 0, 0, 0)
	if tr.Recorded() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Fatalf("nil tracer has state")
	}
}

// TestTracerWraparound pins the ring's overwrite semantics: recording past
// capacity drops the oldest events, the drop counter says exactly how
// many, and the surviving events are the newest ones in order.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(0, 64)
	const total = 200
	for i := 0; i < total; i++ {
		tr.Record(EvApply, 0, 0, NoLoc, uint64(i), 0, 0)
	}
	s := tr.Snapshot()
	if s.Recorded != total {
		t.Fatalf("recorded = %d, want %d", s.Recorded, total)
	}
	if want := uint64(total - 64); s.Dropped != want {
		t.Fatalf("dropped = %d, want %d", s.Dropped, want)
	}
	if len(s.Events) != 64 {
		t.Fatalf("got %d events, want 64", len(s.Events))
	}
	for i, e := range s.Events {
		wantIdx := uint64(total - 64 + i)
		if e.Index != wantIdx || e.Seq != wantIdx {
			t.Fatalf("event %d = index %d seq %d, want %d", i, e.Index, e.Seq, wantIdx)
		}
	}
}

// TestTracerConcurrentSnapshot hammers the ring from many recorders while
// snapshotting: every decoded event must be internally consistent (the
// seqlock skips torn slots rather than exporting them). Run under -race
// this is also the data-race proof for the all-atomic slot encoding.
func TestTracerConcurrentSnapshot(t *testing.T) {
	tr := NewTracer(1, 256)
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				seq := uint64(w)<<32 | uint64(i)
				// A and B carry copies of seq so a torn slot is detectable.
				tr.Record(EvApply, byte(w), uint16(w), NoLoc, seq, seq, seq)
			}
		}(w)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tr.Snapshot()
			for _, e := range s.Events {
				if e.Seq != e.A || e.Seq != e.B {
					t.Errorf("torn event exported: %+v", e)
					return
				}
				if int(e.Label) != int(e.Peer) {
					t.Errorf("torn meta exported: %+v", e)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if got := tr.Recorded(); got != writers*perW {
		t.Fatalf("recorded = %d, want %d", got, writers*perW)
	}
}

// TestRecordAllocFree pins the hot-path contract: recording an event —
// including the interned-location lookup — allocates nothing.
func TestRecordAllocFree(t *testing.T) {
	tr := NewTracer(0, 1024)
	intern(tr, "warm")
	if n := testing.AllocsPerRun(500, func() {
		tr.Record(EvApply, 1, 2, 3, 4, 5, 6)
	}); n != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		tr.RecordLoc(EvWriteIssue, 1, 2, "warm", 4, 5, 6)
	}); n != 0 {
		t.Fatalf("RecordLoc with a warm location allocates %.1f/op, want 0", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(500, func() {
		nilTr.RecordLoc(EvWriteIssue, 1, 2, "warm", 4, 5, 6)
	}); n != 0 {
		t.Fatalf("nil-tracer RecordLoc allocates %.1f/op, want 0", n)
	}
}

// TestInternConcurrent checks the intern table under concurrent insert and
// lookup (run with -race): 1<<15 names, every worker interning all of them
// from its own starting point so fresh inserts, table growth, and warm
// lookups of the same names overlap. Every name must keep one index for
// good, indices must be dense, and Snapshot().Locs must list the names in
// index order — the property the trace codec and the explainer resolve
// event locations through.
func TestInternConcurrent(t *testing.T) {
	tr := NewTracer(0, 64)
	const total = 1 << 15
	names := make([]string, total)
	for i := range names {
		names[i] = fmt.Sprint("A[", i/181, "][", i%181, "]")
	}
	const workers = 8
	first := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]uint32, total)
			start := w * total / workers
			for k := 0; k < total; k++ {
				i := (start + k) % total
				got[i] = intern(tr, names[i])
			}
			for k := 0; k < total; k += 7 {
				if again := intern(tr, names[k]); again != got[k] {
					t.Errorf("name %q re-interned to %d, first saw %d", names[k], again, got[k])
					return
				}
			}
			first[w] = got
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s := tr.Snapshot()
	if len(s.Locs) != total {
		t.Fatalf("intern table has %d entries, want %d", len(s.Locs), total)
	}
	seen := make([]bool, total)
	for i, name := range names {
		idx := intern(tr, name)
		if idx >= total || seen[idx] {
			t.Fatalf("name %q has index %d: out of range or assigned twice", name, idx)
		}
		seen[idx] = true
		if s.Locs[idx] != name {
			t.Fatalf("Snapshot().Locs[%d] = %q, want %q", idx, s.Locs[idx], name)
		}
		for w := range first {
			if first[w][i] != idx {
				t.Fatalf("worker %d saw %q at index %d, table says %d", w, name, first[w][i], idx)
			}
		}
	}
}
