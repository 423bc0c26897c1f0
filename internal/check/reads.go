// Package check implements the consistency checkers of the paper:
//
//   - causal reads (Definition 2) and PRAM reads (Definition 3);
//   - mixed consistency (Definition 4);
//   - sequential consistency (Definition 1, by serialization search);
//   - commutativity (Definition 5) and the Theorem 1 sufficient condition;
//   - the entry-consistent (Corollary 1) and PRAM-consistent (Corollary 2)
//     program analyses that a compiler could run.
//
// The checkers operate on histories from internal/history and serve as the
// ground truth for the runtime: executions recorded from internal/core are
// replayed through this package in tests.
package check

import (
	"fmt"

	"mixedmem/internal/history"
)

// InitialValue is the value every memory location holds before any write.
// The paper assumes distinct write values; reads of a never-written location
// are modeled as reading this initial value.
const InitialValue int64 = 0

// Violation describes one operation that breaks a consistency condition.
type Violation struct {
	// Op is the offending operation's ID.
	Op int
	// Reason explains the failure.
	Reason string
	// Related lists operation IDs that witness the violation (for example
	// the interposed write of Definition 2's second condition).
	Related []int
}

// String renders the violation with the operations spelled out.
func (v Violation) String() string {
	return fmt.Sprintf("op %d: %s (related %v)", v.Op, v.Reason, v.Related)
}

// CausalReads checks that every read labeled Causal is a causal read per
// Definition 2, and returns the violations found. Reads with other labels
// are ignored; awaits are checked to have a matching write.
func CausalReads(a *history.Analysis) []Violation {
	var out []Violation
	for _, op := range a.H.Ops {
		if op.Kind != history.Read || op.Label != history.LabelCausal {
			continue
		}
		if v, ok := checkRead(a, op, a.CausalView(op.Proc)); !ok {
			out = append(out, v)
		}
	}
	return out
}

// PRAMReads checks that every read labeled PRAM is a PRAM read per
// Definition 3, and returns the violations found.
func PRAMReads(a *history.Analysis) []Violation {
	var out []Violation
	for _, op := range a.H.Ops {
		if op.Kind != history.Read || op.Label != history.LabelPRAM {
			continue
		}
		if v, ok := checkRead(a, op, a.PRAMOrder(op.Proc)); !ok {
			out = append(out, v)
		}
	}
	return out
}

// SlowReads checks that every read labeled Slow satisfies the slow-memory
// condition — the common read condition of Definitions 2 and 3 applied to
// ~>i,S, the relation that keeps only each remote writer's per-location FIFO
// (history.SlowOrder). SlowOrder(i) is a subset of PRAMOrder(i), so every
// PRAM read is also a valid slow read; the converse fails on message-passing
// shapes, which is the separation the litmus matrix pins.
func SlowReads(a *history.Analysis) []Violation {
	var out []Violation
	for _, op := range a.H.Ops {
		if op.Kind != history.Read || op.Label != history.LabelSlow {
			continue
		}
		if v, ok := checkRead(a, op, a.SlowOrder(op.Proc)); !ok {
			out = append(out, v)
		}
	}
	return out
}

// Mixed checks mixed consistency per Definition 4, generalized to the label
// lattice: Slow-labeled reads are slow reads, PRAM-labeled reads are PRAM
// reads, Causal-labeled reads are causal reads, and the SC-labeled reads
// jointly admit a single total order consistent with causality in which each
// returns its location's latest write (SCReads). Awaits must match a write.
// The returned slice is empty iff the history is mixed consistent. A history
// too large for the SC serialization search is reported as a violation on the
// SC reads rather than silently passed.
func Mixed(a *history.Analysis) []Violation {
	out := CausalReads(a)
	out = append(out, PRAMReads(a)...)
	out = append(out, SlowReads(a)...)
	sc, err := SCReads(a)
	if err != nil {
		out = append(out, Violation{
			Op:     -1,
			Reason: fmt.Sprintf("SC serialization search failed: %v", err),
		})
	} else {
		out = append(out, sc...)
	}
	out = append(out, awaitsMatched(a)...)
	return out
}

// awaitsMatched verifies that each await observed a written value, which is
// what the synchronization order |->await requires (Section 3.1.3).
func awaitsMatched(a *history.Analysis) []Violation {
	var out []Violation
	for _, op := range a.H.Ops {
		if op.Kind != history.Await {
			continue
		}
		matched := false
		for w := range a.H.Ops {
			if a.RF.Has(w, op.ID) {
				matched = true
				break
			}
		}
		if !matched && op.Value != InitialValue {
			out = append(out, Violation{
				Op:     op.ID,
				Reason: fmt.Sprintf("%s awaited a value never written", op),
			})
		}
	}
	return out
}

// checkRead applies the common read condition of Definitions 2 and 3 with
// the supplied per-process relation (~>i,C, ~>i,P, or ~>i,S):
//
//   - there must exist a write w(x)v related to the read (automatic via the
//     reads-from edge when the value was written; reads of InitialValue with
//     no write are accepted when nothing intervenes);
//   - there must be no read/write operation o(x)u, u != v, with
//     w ~> o ~> r in the relation.
func checkRead(a *history.Analysis, r history.Op, rel *history.Relation) (Violation, bool) {
	w := -1
	for id := range a.H.Ops {
		if a.RF.Has(id, r.ID) {
			w = id
			break
		}
	}
	if w < 0 {
		if r.Value != InitialValue {
			return Violation{
				Op:     r.ID,
				Reason: fmt.Sprintf("%s read a value never written", r),
			}, false
		}
		// Initial-value read: no write to the location may precede it in
		// the relation.
		for _, o := range a.H.Ops {
			if o.Kind == history.Write && o.Loc == r.Loc && rel.Has(o.ID, r.ID) {
				return Violation{
					Op:      r.ID,
					Reason:  fmt.Sprintf("%s read the initial value after %s", r, o),
					Related: []int{o.ID},
				}, false
			}
		}
		return Violation{}, true
	}
	if !rel.Has(w, r.ID) {
		return Violation{
			Op:      r.ID,
			Reason:  fmt.Sprintf("%s not related to its write %s", r, a.H.Ops[w]),
			Related: []int{w},
		}, false
	}
	// Interference: a read/write o(x)u with u != v strictly between w and r.
	// Reads of other processes are already excluded from the relation's
	// domain by construction, matching the remark after Definition 2.
	for _, o := range a.H.Ops {
		if o.ID == w || o.ID == r.ID || o.Loc != r.Loc {
			continue
		}
		if o.Kind != history.Read && o.Kind != history.Write {
			continue
		}
		if o.Value == r.Value {
			continue
		}
		if rel.Has(w, o.ID) && rel.Has(o.ID, r.ID) {
			return Violation{
				Op: r.ID,
				Reason: fmt.Sprintf("%s overwritten by %s before %s",
					a.H.Ops[w], o, r),
				Related: []int{w, o.ID},
			}, false
		}
	}
	return Violation{}, true
}
