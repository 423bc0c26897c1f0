// Package litmus is a library of classic shared-memory litmus tests
// expressed as histories of the paper's formal model, each annotated with
// its expected verdict at every point of the consistency lattice: slow
// memory (per-writer per-location FIFO only), PRAM reads (Definition 3),
// causal reads (Definition 2), and sequential consistency (Definition 1).
//
// The suite serves two purposes. It documents, in executable form, exactly
// where the conditions separate — the hierarchy SC ⊂ causal ⊂ PRAM ⊂ slow
// means every SC-allowed history is causal-allowed, every causal-allowed
// history is PRAM-allowed, and every PRAM-allowed history is slow-allowed;
// the suite contains witnesses for all three strict inclusions. And it is a
// regression battery for the checkers in internal/check: each test is
// evaluated at all four lattice points and compared with the annotation.
package litmus

import (
	"fmt"

	"mixedmem/internal/check"
	"mixedmem/internal/history"
)

// Verdict says whether a history is admitted by a consistency condition.
type Verdict bool

// Verdict values.
const (
	Allowed   Verdict = true
	Forbidden Verdict = false
)

// String renders the verdict.
func (v Verdict) String() string {
	if v {
		return "allowed"
	}
	return "forbidden"
}

// Test is one litmus test: a history builder plus expected verdicts.
type Test struct {
	// Name identifies the test in the classic literature naming (MP, SB,
	// IRIW, ...).
	Name string
	// Description says what behavior the history exhibits.
	Description string
	// Build constructs the history. Reads carry the label under test, set
	// by the driver through the label argument.
	Build func(label history.Label) *history.History
	// Slow, PRAM, Causal, SC are the expected verdicts under slow reads,
	// PRAM reads, causal reads, and sequential consistency — the four
	// points of the label lattice, weakest first.
	Slow, PRAM, Causal, SC Verdict
}

// Evaluate runs the test's history through the four checkers and returns
// the observed verdicts, lattice order weakest first.
func (t Test) Evaluate() (slow, pram, causal, sc Verdict, err error) {
	// Slow verdict: label reads slow.
	hs := t.Build(history.LabelSlow)
	as, err := hs.Analyze()
	if err != nil {
		return false, false, false, false, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	slow = Verdict(len(check.SlowReads(as)) == 0)

	// PRAM verdict: label reads PRAM.
	hp := t.Build(history.LabelPRAM)
	ap, err := hp.Analyze()
	if err != nil {
		return false, false, false, false, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	pram = Verdict(len(check.PRAMReads(ap)) == 0)

	// Causal verdict: label reads causal.
	hc := t.Build(history.LabelCausal)
	ac, err := hc.Analyze()
	if err != nil {
		return false, false, false, false, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	causal = Verdict(len(check.CausalReads(ac)) == 0)

	// SC verdict on the same history.
	ok, _, err := check.SequentiallyConsistent(ac)
	if err != nil {
		return false, false, false, false, fmt.Errorf("litmus %s: SC: %w", t.Name, err)
	}
	sc = Verdict(ok)
	return slow, pram, causal, sc, nil
}

// Suite returns the full litmus battery.
func Suite() []Test {
	return []Test{
		{
			Name:        "MP",
			Description: "message passing: consumer sees flag but stale data",
			// p0: w(x)1; w(f)1.  p1: r(f)1; r(x)0.
			// FIFO per sender forbids it even under PRAM.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Write(0, "f", 1)
				b.Read(1, "f", 1, l)
				b.Read(1, "x", 0, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "MP+fresh",
			Description: "message passing done right: consumer sees both writes",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Write(0, "f", 1)
				b.Read(1, "f", 1, l)
				b.Read(1, "x", 1, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Allowed,
		},
		{
			Name:        "SB",
			Description: "store buffering: both processes read 0 after writing",
			// p0: w(x)1; r(y)0.  p1: w(y)1; r(x)0.
			// No interleaving admits it, but both weak models do: each
			// process's reads are consistent with its own view.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Read(0, "y", 0, l)
				b.Write(1, "y", 1)
				b.Read(1, "x", 0, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Forbidden,
		},
		{
			Name:        "WRC",
			Description: "write-to-read causality: transitive visibility through a middleman",
			// p0: w(x)1.  p1: r(x)1; w(y)1.  p2: r(y)1; r(x)0.
			// The canonical PRAM/causal separation witness.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(3)
				b.Write(0, "x", 1)
				b.Read(1, "x", 1, l)
				b.Write(1, "y", 1)
				b.Read(2, "y", 1, l)
				b.Read(2, "x", 0, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "IRIW",
			Description: "independent reads of independent writes in opposite orders",
			// p0: w(x)1.  p1: w(y)1.  p2: r(x)1; r(y)0.  p3: r(y)1; r(x)0.
			// Concurrent writes may be observed in different orders under
			// both weak models; SC forbids it.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(4)
				b.Write(0, "x", 1)
				b.Write(1, "y", 1)
				b.Read(2, "x", 1, l)
				b.Read(2, "y", 0, l)
				b.Read(3, "y", 1, l)
				b.Read(3, "x", 0, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Forbidden,
		},
		{
			Name:        "CoRR",
			Description: "coherence of read-read: one process sees a single location go backwards",
			// p0: w(x)1; w(x)2.  p1: r(x)2; r(x)1.
			// FIFO per sender forbids re-reading the older value.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Write(0, "x", 2)
				b.Read(1, "x", 2, l)
				b.Read(1, "x", 1, l)
				return b.History()
			},
			Slow: Forbidden, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "CoRR-cross",
			Description: "two readers disagree on the order of concurrent writes to one location",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(4)
				b.Write(0, "x", 1)
				b.Write(1, "x", 2)
				b.Read(2, "x", 1, l)
				b.Read(2, "x", 2, l)
				b.Read(3, "x", 2, l)
				b.Read(3, "x", 1, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Forbidden,
		},
		{
			Name:        "LB-values",
			Description: "reads of never-written values",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Read(0, "x", 7, l)
				b.Write(1, "x", 1)
				return b.History()
			},
			Slow: Forbidden, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "Await-MP",
			Description: "producer/consumer through an await statement, stale data",
			// The await's synchronization order makes the stale read
			// illegal even under PRAM (the edge is incident on the reader).
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Write(0, "f", 1)
				b.Await(1, "f", 1)
				b.Read(1, "x", 0, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "Await-WRC",
			Description: "transitive handshake through a third process, stale data",
			// p0: w(x)1; w(f)1.  p1: a(f)1; w(g)1.  p2: a(g)1; r(x)0.
			// The Section 5.1 insufficiency: the await chain passes through
			// p1, so PRAM admits the stale read but causal forbids it.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(3)
				b.Write(0, "x", 1)
				b.Write(0, "f", 1)
				b.Await(1, "f", 1)
				b.Write(1, "g", 1)
				b.Await(2, "g", 1)
				b.Read(2, "x", 0, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "Lock-handoff",
			Description: "stale read inside a later critical section",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				e0 := b.WLockEpoch(0, "lk")
				b.Write(0, "x", 1)
				b.WUnlockEpoch(0, "lk", e0)
				e1 := b.WLockEpoch(1, "lk")
				b.Read(1, "x", 0, l)
				b.WUnlockEpoch(1, "lk", e1)
				return b.History()
			},
			Slow: Allowed, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "Lock-chain",
			Description: "three-way lock chain; middle holder writes nothing",
			// p0 writes x under the lock; p1 takes and releases the lock;
			// p2 takes the lock and reads x stale. The lock order is
			// transitive through p1's hold, so causal forbids the stale
			// read. Under PRAM only edges incident on p2 survive the
			// transitive reduction — the wu0 -> wl1 edge is dropped — so
			// PRAM admits it (the "immediately preceding process" rule of
			// Section 6).
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(3)
				e0 := b.WLockEpoch(0, "lk")
				b.Write(0, "x", 1)
				b.WUnlockEpoch(0, "lk", e0)
				e1 := b.WLockEpoch(1, "lk")
				b.WUnlockEpoch(1, "lk", e1)
				e2 := b.WLockEpoch(2, "lk")
				b.Read(2, "x", 0, l)
				b.WUnlockEpoch(2, "lk", e2)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "Barrier-MP",
			Description: "stale read across a barrier",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Barrier(0, 1)
				b.Barrier(1, 1)
				b.Read(1, "x", 0, l)
				return b.History()
			},
			Slow: Forbidden, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "Barrier-fresh",
			Description: "phase exchange across a barrier, all fresh",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Write(1, "y", 2)
				b.Barrier(0, 1)
				b.Barrier(1, 1)
				b.Read(0, "y", 2, l)
				b.Read(1, "x", 1, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Allowed,
		},
		{
			Name:        "2P-equivalence",
			Description: "with two processes, PRAM and causal coincide (Section 3.2 remark)",
			// A two-process history that would separate the models if a
			// third process relayed the dependency; with two processes the
			// reads-from edge is always incident on the reader, so both
			// models forbid the stale read.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Read(1, "x", 1, l)
				b.Write(1, "y", 1)
				b.Read(0, "y", 1, l)
				b.Read(0, "z", 0, l) // touch a third location, still fine
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Allowed,
		},
		{
			Name:        "SB+barrier",
			Description: "store buffering with a barrier between writes and reads",
			// The barrier forces both writes before both reads, so reading
			// 0 is forbidden under every condition.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Barrier(0, 1)
				b.Read(0, "y", 0, l)
				b.Write(1, "y", 1)
				b.Barrier(1, 1)
				b.Read(1, "x", 0, l)
				return b.History()
			},
			Slow: Forbidden, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "SB+barrier-fresh",
			Description: "store buffering resolved by a barrier, both reads fresh",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Barrier(0, 1)
				b.Read(0, "y", 1, l)
				b.Write(1, "y", 1)
				b.Barrier(1, 1)
				b.Read(1, "x", 1, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Allowed,
		},
		{
			Name:        "WWC",
			Description: "write-to-write causality: later write observed without its predecessor's context",
			// p0 writes x; p1 reads it and overwrites x; p2 reads p1's
			// value then re-reads p0's older one. The second read is a
			// same-location coherence violation under causal (w0 ~> w1 in
			// p2's view) but PRAM admits it: w0's edge to p1's read is
			// dropped, leaving w0 and w1 unordered for p2.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(3)
				b.Write(0, "x", 1)
				b.Read(1, "x", 1, l)
				b.Write(1, "x", 2)
				b.Read(2, "x", 2, l)
				b.Read(2, "x", 1, l)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Forbidden, SC: Forbidden,
		},
		{
			Name:        "MP-locks-fresh",
			Description: "critical-section handoff with fresh data",
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				e0 := b.WLockEpoch(0, "lk")
				b.Write(0, "x", 1)
				b.WUnlockEpoch(0, "lk", e0)
				e1 := b.WLockEpoch(1, "lk")
				b.Read(1, "x", 1, l)
				b.WUnlockEpoch(1, "lk", e1)
				return b.History()
			},
			Slow: Allowed, PRAM: Allowed, Causal: Allowed, SC: Allowed,
		},
		{
			Name:        "2P-stale",
			Description: "two-process staleness forbidden by both weak models",
			// p0: w(x)1.  p1: r(x)1; w(y)1.  p0: r(y)1; then p1: r(x)... no
			// — keep it two-sided: p1 reads x fresh then x stale again.
			Build: func(l history.Label) *history.History {
				b := history.NewBuilder(2)
				b.Write(0, "x", 1)
				b.Read(1, "x", 1, l)
				b.Read(1, "x", 0, l)
				return b.History()
			},
			Slow: Forbidden, PRAM: Forbidden, Causal: Forbidden, SC: Forbidden,
		},
	}
}
