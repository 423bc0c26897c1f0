package history

import (
	"errors"
	"strings"
	"testing"
)

func mustAnalyze(t *testing.T, h *History) *Analysis {
	t.Helper()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

func TestBuilderAssignsSeqPerStrand(t *testing.T) {
	b := NewBuilder(2)
	id0 := b.Write(0, "x", 1)
	id1 := b.Write(1, "y", 2)
	id2 := b.Write(0, "x", 3)
	h := b.History()
	if h.Ops[id0].Seq != 0 || h.Ops[id2].Seq != 1 {
		t.Errorf("proc 0 seqs = %d, %d; want 0, 1", h.Ops[id0].Seq, h.Ops[id2].Seq)
	}
	if h.Ops[id1].Seq != 0 {
		t.Errorf("proc 1 seq = %d, want 0", h.Ops[id1].Seq)
	}
}

func TestProgramOrderWithinProcess(t *testing.T) {
	b := NewBuilder(2)
	w1 := b.Write(0, "x", 1)
	w2 := b.Write(0, "y", 2)
	w3 := b.Write(0, "z", 3)
	other := b.Write(1, "q", 4)
	a := mustAnalyze(t, b.History())
	if !a.PO.Has(w1, w2) || !a.PO.Has(w2, w3) {
		t.Error("missing direct program-order edges")
	}
	if !a.PO.Has(w1, w3) {
		t.Error("program order not transitively closed")
	}
	if a.PO.Has(w1, other) || a.PO.Has(other, w1) {
		t.Error("program order crosses processes")
	}
}

func TestProgramOrderThreadsUnordered(t *testing.T) {
	b := NewBuilder(1)
	t0 := b.AppendOp(Op{Proc: 0, Thread: 0, Kind: Write, Loc: "x", Value: 1})
	t1 := b.AppendOp(Op{Proc: 0, Thread: 1, Kind: Write, Loc: "y", Value: 2})
	a := mustAnalyze(t, b.History())
	if a.PO.Has(t0, t1) || a.PO.Has(t1, t0) {
		t.Error("operations on different threads must be unordered")
	}
}

func TestExplicitEdgeJoinsThreads(t *testing.T) {
	b := NewBuilder(1)
	fork := b.AppendOp(Op{Proc: 0, Thread: 0, Kind: Write, Loc: "x", Value: 1})
	child := b.AppendOp(Op{Proc: 0, Thread: 1, Kind: Write, Loc: "y", Value: 2})
	if err := b.History().AddEdge(fork, child); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	a := mustAnalyze(t, b.History())
	if !a.PO.Has(fork, child) {
		t.Error("explicit edge missing from program order")
	}
}

func TestAddEdgeRejectsCrossProcess(t *testing.T) {
	b := NewBuilder(2)
	x := b.Write(0, "x", 1)
	y := b.Write(1, "y", 2)
	if err := b.History().AddEdge(x, y); !errors.Is(err, ErrBadOp) {
		t.Errorf("AddEdge across processes: got %v, want ErrBadOp", err)
	}
	if err := b.History().AddEdge(0, 99); !errors.Is(err, ErrBadOp) {
		t.Errorf("AddEdge out of range: got %v, want ErrBadOp", err)
	}
}

func TestReadsFrom(t *testing.T) {
	b := NewBuilder(2)
	w := b.Write(0, "x", 7)
	r := b.Read(1, "x", 7, LabelCausal)
	rInit := b.Read(1, "y", 0, LabelCausal)
	a := mustAnalyze(t, b.History())
	if !a.RF.Has(w, r) {
		t.Error("missing reads-from edge")
	}
	for i := range b.History().Ops {
		if a.RF.Has(i, rInit) {
			t.Error("initial-value read must have no reads-from predecessor")
		}
	}
}

func TestAwaitOrder(t *testing.T) {
	b := NewBuilder(2)
	w := b.Write(0, "flag", 1)
	aw := b.Await(1, "flag", 1)
	post := b.Write(1, "y", 2)
	a := mustAnalyze(t, b.History())
	if !a.AwaitOrder.Has(w, aw) {
		t.Error("missing |->await edge")
	}
	if !a.Causality.Has(w, post) {
		t.Error("causality must propagate through await")
	}
}

func TestLockOrderProperties(t *testing.T) {
	// Epoch 0: read epoch with two readers; epoch 1: write epoch; epoch 2:
	// read epoch. Mirrors the structure of Figure 1.
	b := NewBuilder(3)
	rl0 := b.RLockEpoch(0, "l", b.NextEpoch("l"))
	ru0 := b.RUnlockEpoch(0, "l", 0)
	rl1 := b.RLockEpoch(1, "l", 0)
	ru1 := b.RUnlockEpoch(1, "l", 0)
	e1 := b.WLockEpoch(2, "l")
	var wl2, wu2 int
	{
		h := b.History()
		wl2 = len(h.Ops) - 1
	}
	wu2 = b.WUnlockEpoch(2, "l", e1)
	e2 := b.NextEpoch("l")
	rl3 := b.RLockEpoch(0, "l", e2)
	ru3 := b.RUnlockEpoch(0, "l", e2)

	a := mustAnalyze(t, b.History())
	lo := a.LockOrder

	// Property 1: wl/wu totally ordered with respect to all rl/ru.
	for _, r := range []int{rl0, ru0, rl1, ru1} {
		if !lo.Has(r, wl2) || !lo.Has(r, wu2) {
			t.Errorf("epoch-0 op %d not ordered before write epoch", r)
		}
	}
	for _, r := range []int{rl3, ru3} {
		if !lo.Has(wl2, r) || !lo.Has(wu2, r) {
			t.Errorf("write epoch not ordered before epoch-2 op %d", r)
		}
	}
	if !lo.Has(wl2, wu2) {
		t.Error("wl must precede its matching wu")
	}
	// Property 2: nothing between wl and its matching wu.
	for i := range b.History().Ops {
		if i == wl2 || i == wu2 {
			continue
		}
		if lo.Has(wl2, i) && lo.Has(i, wu2) {
			t.Errorf("op %d ordered inside write critical section", i)
		}
	}
	// Property 3: no wl between rl and its matching ru.
	if lo.Has(rl0, wl2) && lo.Has(wl2, ru0) {
		t.Error("wl ordered inside read hold")
	}
	// Concurrent readers in one epoch are unordered by |->lock.
	if lo.Has(rl0, rl1) || lo.Has(rl1, rl0) {
		t.Error("readers in the same epoch must be unordered")
	}
}

func TestBarrierOrder(t *testing.T) {
	// Two processes, one barrier. Pre-barrier ops precede every process's
	// barrier op; post-barrier ops follow every process's barrier op.
	b := NewBuilder(2)
	pre0 := b.Write(0, "x", 1)
	b0 := b.Barrier(0, 1)
	post0 := b.Read(0, "y", 2, LabelPRAM)
	pre1 := b.Write(1, "y", 2)
	b1 := b.Barrier(1, 1)
	post1 := b.Read(1, "x", 1, LabelPRAM)

	a := mustAnalyze(t, b.History())
	bo := a.BarrierOrder
	for _, tc := range []struct{ from, to int }{
		{pre0, b0}, {pre0, b1}, {pre1, b0}, {pre1, b1},
		{b0, post0}, {b1, post0}, {b0, post1}, {b1, post1},
	} {
		if !bo.Has(tc.from, tc.to) {
			t.Errorf("missing |->bar edge %s -> %s",
				b.History().Ops[tc.from], b.History().Ops[tc.to])
		}
	}
	// Cross-phase causality: pre1's write must causally precede post0's read.
	if !a.Causality.Has(pre1, post0) {
		t.Error("barrier must causally order cross-process phases")
	}
}

func TestFigure1SynchronizationOrders(t *testing.T) {
	// Figure 1 of the paper: phase i has two read-lock holds and one write
	// hold on the same lock, followed by a barrier into phase i+1 with two
	// more read holds. We verify the synchronization orders the figure
	// depicts: reads before the write hold, reads after it, and the barrier
	// separating the phases.
	b := NewBuilder(3)
	// Phase i.
	e0 := b.NextEpoch("l")
	rlA := b.RLockEpoch(0, "l", e0)
	ruA := b.RUnlockEpoch(0, "l", e0)
	rlB := b.RLockEpoch(1, "l", e0)
	ruB := b.RUnlockEpoch(1, "l", e0)
	eW := b.WLockEpoch(2, "l")
	h := b.History()
	wl := len(h.Ops) - 1
	wu := b.WUnlockEpoch(2, "l", eW)
	e2 := b.NextEpoch("l")
	rlC := b.RLockEpoch(0, "l", e2)
	ruC := b.RUnlockEpoch(0, "l", e2)
	rlD := b.RLockEpoch(1, "l", e2)
	ruD := b.RUnlockEpoch(1, "l", e2)
	// Barrier into phase i+1.
	bar0 := b.Barrier(0, 1)
	bar1 := b.Barrier(1, 1)
	bar2 := b.Barrier(2, 1)
	// Phase i+1 operations.
	next0 := b.Write(0, "u", 1)
	next1 := b.Write(1, "v", 2)

	a := mustAnalyze(t, b.History())
	// Lock order: both early read holds precede the write hold; the write
	// hold precedes both later read holds.
	for _, early := range []int{rlA, ruA, rlB, ruB} {
		if !a.LockOrder.Has(early, wl) {
			t.Errorf("op %d must precede wl in |->lock", early)
		}
	}
	for _, late := range []int{rlC, ruC, rlD, ruD} {
		if !a.LockOrder.Has(wu, late) {
			t.Errorf("wu must precede op %d in |->lock", late)
		}
	}
	// Barrier order: every phase-i op precedes every process's barrier op,
	// and phase-i+1 ops follow them.
	for _, pre := range []int{ruA, ruB, wu, ruC, ruD} {
		for _, bar := range []int{bar0, bar1, bar2} {
			if !a.BarrierOrder.Has(pre, bar) {
				t.Errorf("phase-i op %d must precede barrier op %d", pre, bar)
			}
		}
	}
	for _, bar := range []int{bar0, bar1, bar2} {
		for _, post := range []int{next0, next1} {
			if !a.BarrierOrder.Has(bar, post) {
				t.Errorf("barrier op %d must precede phase-i+1 op %d", bar, post)
			}
		}
	}
	// The whole history's causality is acyclic (Analyze already checks),
	// and the write hold causally precedes phase i+1 on every process.
	if !a.Causality.Has(wl, next1) {
		t.Error("write hold must causally precede the next phase")
	}
}

func TestCausalViewExcludesOtherReads(t *testing.T) {
	b := NewBuilder(3)
	w := b.Write(0, "x", 1)
	rOther := b.Read(1, "x", 1, LabelCausal)
	rMine := b.Read(2, "x", 1, LabelCausal)
	a := mustAnalyze(t, b.History())
	view := a.CausalView(2)
	if !view.Has(w, rMine) {
		t.Error("own read must keep its reads-from edge in the causal view")
	}
	if view.Has(w, rOther) || view.Has(rOther, rMine) {
		t.Error("causal view must drop reads of other processes")
	}
}

func TestCausalityTransitsThroughOtherReads(t *testing.T) {
	// w0(x)1 -> r1(x)1 -> w1(y)2: the restriction of the closed relation
	// must still relate w0(x)1 to w1(y)2 for p2's view.
	b := NewBuilder(3)
	w0 := b.Write(0, "x", 1)
	b.Read(1, "x", 1, LabelCausal)
	w1 := b.Write(1, "y", 2)
	a := mustAnalyze(t, b.History())
	if !a.CausalView(2).Has(w0, w1) {
		t.Error("causal view must keep transitive dependence through another process's read")
	}
}

func TestPRAMOrderDropsIndirectDependence(t *testing.T) {
	// The canonical PRAM/causal separation: p0 writes x, p1 reads it and
	// writes y, p2 reads y. Under ~>2,P the edge w0(x) -> w1(y) vanishes
	// because it passes through p1's read, which touches neither endpoint
	// at p2.
	b := NewBuilder(3)
	w0 := b.Write(0, "x", 1)
	b.Read(1, "x", 1, LabelPRAM)
	w1 := b.Write(1, "y", 2)
	r2 := b.Read(2, "y", 2, LabelPRAM)
	a := mustAnalyze(t, b.History())
	p2 := a.PRAMOrder(2)
	if !p2.Has(w1, r2) {
		t.Error("direct reads-from edge to p2 must survive")
	}
	if p2.Has(w0, r2) {
		t.Error("indirect dependence through p1's read must not reach p2 in PRAM order")
	}
	// Under the causal view it does reach p2.
	if !a.CausalView(2).Has(w0, r2) {
		t.Error("causal view must relate w0(x) to p2's read")
	}
}

func TestPRAMOrderKeepsSyncEdges(t *testing.T) {
	// Await edges incident on p1 are kept in ~>1,P, so the write the await
	// matched is visible.
	b := NewBuilder(2)
	w := b.Write(0, "flag", 1)
	aw := b.Await(1, "flag", 1)
	r := b.Read(1, "flag", 1, LabelPRAM)
	a := mustAnalyze(t, b.History())
	p1 := a.PRAMOrder(1)
	if !p1.Has(w, aw) || !p1.Has(w, r) {
		t.Error("await sync edge must appear in PRAM order of the awaiting process")
	}
}

func TestValidateUnmatchedUnlock(t *testing.T) {
	b := NewBuilder(1)
	b.AppendOp(Op{Proc: 0, Kind: WUnlock, Lock: "l", LockEpoch: 0})
	if _, err := b.History().Analyze(); !errors.Is(err, ErrUnmatchedUnlock) {
		t.Errorf("got %v, want ErrUnmatchedUnlock", err)
	}
}

func TestValidateDoubleAcquire(t *testing.T) {
	b := NewBuilder(1)
	b.AppendOp(Op{Proc: 0, Kind: WLock, Lock: "l", LockEpoch: 0})
	b.AppendOp(Op{Proc: 0, Kind: WLock, Lock: "l", LockEpoch: 1})
	if _, err := b.History().Analyze(); !errors.Is(err, ErrBadLockEpoch) {
		t.Errorf("got %v, want ErrBadLockEpoch", err)
	}
}

func TestValidateMixedEpoch(t *testing.T) {
	b := NewBuilder(2)
	b.AppendOp(Op{Proc: 0, Kind: WLock, Lock: "l", LockEpoch: 0})
	b.AppendOp(Op{Proc: 0, Kind: WUnlock, Lock: "l", LockEpoch: 0})
	b.AppendOp(Op{Proc: 1, Kind: RLock, Lock: "l", LockEpoch: 0})
	b.AppendOp(Op{Proc: 1, Kind: RUnlock, Lock: "l", LockEpoch: 0})
	if _, err := b.History().Analyze(); !errors.Is(err, ErrBadLockEpoch) {
		t.Errorf("got %v, want ErrBadLockEpoch", err)
	}
}

func TestValidateDuplicateWriteValue(t *testing.T) {
	b := NewBuilder(2)
	b.Write(0, "x", 5)
	b.Write(1, "x", 5)
	if _, err := b.History().Analyze(); !errors.Is(err, ErrDuplicateValue) {
		t.Errorf("got %v, want ErrDuplicateValue", err)
	}
}

func TestValidateBarrierUnorderedAcrossThreads(t *testing.T) {
	b := NewBuilder(1)
	b.AppendOp(Op{Proc: 0, Thread: 0, Kind: Barrier, BarrierID: 1})
	b.AppendOp(Op{Proc: 0, Thread: 1, Kind: Write, Loc: "x", Value: 1})
	if _, err := b.History().Analyze(); !errors.Is(err, ErrBarrierUnordered) {
		t.Errorf("got %v, want ErrBarrierUnordered", err)
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{Op{Proc: 2, Kind: Read, Loc: "y", Value: 3, Label: LabelCausal}, "r2(y)3[Causal]"},
		{Op{Proc: 1, Kind: Write, Loc: "z", Value: 4}, "w1(z)4"},
		{Op{Proc: 0, Kind: Await, Loc: "x", Value: 9}, "a0(x)9"},
		{Op{Proc: 3, Kind: WLock, Lock: "l", LockEpoch: 2}, "wl3(l)@2"},
		{Op{Proc: 1, Kind: Barrier, BarrierID: 4}, "b4_1"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestSameObject(t *testing.T) {
	w := Op{Kind: Write, Loc: "x"}
	r := Op{Kind: Read, Loc: "x"}
	ry := Op{Kind: Read, Loc: "y"}
	wl := Op{Kind: WLock, Lock: "x"}
	bar := Op{Kind: Barrier, BarrierID: 1}
	bar2 := Op{Kind: Barrier, BarrierID: 1}
	if !w.SameObject(r) {
		t.Error("same location must match")
	}
	if w.SameObject(ry) {
		t.Error("different locations must not match")
	}
	if w.SameObject(wl) {
		t.Error("a lock named like a location is a different object")
	}
	if !bar.SameObject(bar2) {
		t.Error("same barrier index must match")
	}
	if bar.SameObject(w) {
		t.Error("barrier and memory op must not match")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(70) // spans two words
	r.Add(0, 65)
	r.Add(65, 69)
	if !r.Has(0, 65) || r.Has(65, 0) {
		t.Fatal("Add/Has broken across word boundary")
	}
	r.TransitiveClose()
	if !r.Has(0, 69) {
		t.Error("closure missed multi-word path")
	}
	if r.Pairs() != 3 {
		t.Errorf("Pairs = %d, want 3", r.Pairs())
	}
}

func TestTransitiveReduce(t *testing.T) {
	r := NewRelation(3)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(0, 2) // redundant
	red := r.TransitiveReduce()
	if !red.Has(0, 1) || !red.Has(1, 2) {
		t.Error("reduction dropped necessary edges")
	}
	if red.Has(0, 2) {
		t.Error("reduction kept redundant edge")
	}
}

func TestHasCycle(t *testing.T) {
	r := NewRelation(3)
	r.Add(0, 1)
	r.Add(1, 2)
	if r.HasCycle() {
		t.Error("acyclic graph reported cyclic")
	}
	r.Add(2, 0)
	if !r.HasCycle() {
		t.Error("cycle not detected")
	}
	self := NewRelation(2)
	self.Add(1, 1)
	if !self.HasCycle() {
		t.Error("self-loop not detected")
	}
}

func BenchmarkAnalyzeMediumHistory(b *testing.B) {
	bld := NewBuilder(4)
	for p := 0; p < 4; p++ {
		for i := 0; i < 15; i++ {
			bld.Write(p, "x"+string(rune('0'+p)), int64(p*100+i+1))
			bld.Read(p, "x"+string(rune('0'+(p+1)%4)), 0, LabelPRAM)
		}
	}
	h := bld.History()
	// Pre-check it analyzes (reads of 0 may conflict with nothing).
	if _, err := h.Analyze(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitiveClose256(b *testing.B) {
	base := NewRelation(256)
	for i := 0; i < 255; i++ {
		base.Add(i, i+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation(256)
		r.Union(base)
		r.TransitiveClose()
	}
}

func TestWriteDOT(t *testing.T) {
	// A history whose reduced causality keeps one edge of each color:
	// the barrier edges survive (no data path parallels them), the
	// post-barrier reads-from edge survives (no sync path parallels it),
	// and program order supplies the black edges.
	b := NewBuilder(2)
	b.Write(0, "a", 1)
	b.Barrier(0, 1)
	b.Barrier(1, 1)
	b.Write(1, "b", 2)
	b.Write(0, "x", 9)
	b.Read(1, "x", 9, LabelCausal)
	a := mustAnalyze(t, b.History())
	var buf strings.Builder
	if err := a.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph history", "cluster_p0", "cluster_p1",
		`label="w0(a)1"`, `label="b1_0"`, "color=red", "color=blue", "color=black",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
