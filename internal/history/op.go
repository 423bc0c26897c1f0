package history

import (
	"fmt"
	"strconv"
)

// OpKind identifies the kind of an operation in a history. Memory operations
// are Read, Write, and Await (an await reads a memory location, Section 3.1.3
// of the paper); the remaining kinds are synchronization operations on lock
// and barrier objects disjoint from the memory locations.
type OpKind int

// The operation kinds of the mixed-consistency model.
const (
	Read OpKind = iota + 1
	Write
	Await
	RLock
	RUnlock
	WLock
	WUnlock
	Barrier
)

// String returns the paper's notation for the kind.
func (k OpKind) String() string {
	switch k {
	case Read:
		return "r"
	case Write:
		return "w"
	case Await:
		return "a"
	case RLock:
		return "rl"
	case RUnlock:
		return "ru"
	case WLock:
		return "wl"
	case WUnlock:
		return "wu"
	case Barrier:
		return "bar"
	default:
		return "op(" + strconv.Itoa(int(k)) + ")"
	}
}

// IsLock reports whether k is one of the four lock operations.
func (k OpKind) IsLock() bool {
	return k == RLock || k == RUnlock || k == WLock || k == WUnlock
}

// IsSync reports whether k is a synchronization operation (lock, barrier, or
// await).
func (k OpKind) IsSync() bool {
	return k.IsLock() || k == Barrier || k == Await
}

// Label classifies a read operation by the consistency condition it demands.
// The paper's Definition 4 introduces the PRAM/Causal pair; the runtime
// generalizes it to a four-point lattice
//
//	Slow < PRAM < Causal < SC
//
// ordered by strength: a Slow read is guaranteed only per-location per-writer
// FIFO (Hutto & Ahamad's slow memory), a PRAM read additionally respects each
// writer's cross-location program order, a Causal read respects transitive
// causality, and an SC read participates in a single global total order
// consistent with program order. Writes and synchronization operations carry
// LabelNone. The constant values of the original pair are preserved for wire
// and fixture compatibility; use Rank for lattice comparisons, not the raw
// constant values.
type Label int

// Read labels.
const (
	LabelNone Label = iota
	LabelPRAM
	LabelCausal
	LabelSlow
	LabelSC
)

// String names the label.
func (l Label) String() string {
	switch l {
	case LabelNone:
		return "none"
	case LabelPRAM:
		return "PRAM"
	case LabelCausal:
		return "Causal"
	case LabelSlow:
		return "Slow"
	case LabelSC:
		return "SC"
	default:
		return "label(" + strconv.Itoa(int(l)) + ")"
	}
}

// LatticeLabels lists the four lattice points from weakest to strongest —
// the order every spectrum sweep and verdict table iterates in.
func LatticeLabels() [4]Label {
	return [4]Label{LabelSlow, LabelPRAM, LabelCausal, LabelSC}
}

// Op is one operation of a history. The zero value is not a valid operation;
// construct ops through Builder or the runtime recorder.
//
// Following the paper, every write is assumed to carry a distinct value for
// its location, so the reads-from relation is recoverable from values alone.
type Op struct {
	// ID is the operation's index in History.Ops.
	ID int
	// Proc identifies the issuing process p_i.
	Proc int
	// Thread distinguishes concurrent threads within a process. The paper
	// models local computations as partial orders; program order relates
	// two operations of a process only when they are on the same thread
	// (or connected by an explicit edge added with History.AddEdge).
	Thread int
	// Seq is the operation's position in its (Proc, Thread) sequence.
	Seq int
	// Kind is the operation kind.
	Kind OpKind
	// Loc is the memory location for Read, Write, and Await.
	Loc string
	// Value is the value read, written, or awaited.
	Value int64
	// Label classifies reads as PRAM or Causal.
	Label Label
	// Lock names the lock object for lock operations.
	Lock string
	// LockEpoch positions a lock operation in the per-lock grant order
	// |->lock (Section 3.1.1): operations in a smaller epoch precede
	// operations in a larger epoch; a write epoch holds exactly one
	// wl/wu pair (wl before wu); a read epoch holds any number of rl/ru.
	LockEpoch int
	// BarrierID is the barrier index k for Barrier operations: all
	// operations b^k across processes form one global barrier.
	BarrierID int
	// BarrierGroup names the barrier object for subset barriers ("" is the
	// global barrier). The paper notes a barrier "can also be defined for
	// a subset of processes by restricting the range of the universal
	// quantification to the subset"; operations with the same
	// (BarrierGroup, BarrierID) form one barrier instance over exactly the
	// processes that issued them.
	BarrierGroup string
}

// String renders the operation in the paper's notation, e.g. "w1(x)4" or
// "r2(y)3[Causal]".
func (o Op) String() string {
	switch o.Kind {
	case Read:
		return fmt.Sprintf("r%d(%s)%d[%s]", o.Proc, o.Loc, o.Value, o.Label)
	case Write:
		return fmt.Sprintf("w%d(%s)%d", o.Proc, o.Loc, o.Value)
	case Await:
		return fmt.Sprintf("a%d(%s)%d", o.Proc, o.Loc, o.Value)
	case RLock, RUnlock, WLock, WUnlock:
		return fmt.Sprintf("%s%d(%s)@%d", o.Kind, o.Proc, o.Lock, o.LockEpoch)
	case Barrier:
		return fmt.Sprintf("b%d_%d", o.BarrierID, o.Proc)
	default:
		return fmt.Sprintf("op%d?", o.ID)
	}
}

// SameObject reports whether two operations touch the same object: the same
// memory location, the same lock, or the same barrier index.
func (o Op) SameObject(other Op) bool {
	switch {
	case o.Kind == Barrier && other.Kind == Barrier:
		return o.BarrierID == other.BarrierID && o.BarrierGroup == other.BarrierGroup
	case o.Kind == Barrier || other.Kind == Barrier:
		return false
	case o.Kind.IsLock() && other.Kind.IsLock():
		return o.Lock == other.Lock
	case o.Kind.IsLock() || other.Kind.IsLock():
		return false
	default:
		return o.Loc == other.Loc
	}
}

// readsMemory reports whether the operation observes a memory location's
// value (reads and awaits).
func (o Op) readsMemory() bool { return o.Kind == Read || o.Kind == Await }
