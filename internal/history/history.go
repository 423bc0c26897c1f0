// Package history implements the formal system model of Section 3 of the
// paper: operations, local histories as partial orders, the reads-from
// relation, the synchronization orders |->lock, |->bar, and |->await, the
// causality relation ~> (the transitive closure of their union with program
// order), and the per-process observable relations ~>i,C (causal, Def. 2)
// and ~>i,P (PRAM, Def. 3).
//
// The package is the ground truth against which the runtime is tested:
// internal/core records executions as histories, and internal/check checks
// them.
package history

import (
	"errors"
	"fmt"
	"sort"
)

// Well-formedness errors.
var (
	ErrUnmatchedUnlock  = errors.New("history: unlock without preceding matching lock")
	ErrBarrierUnordered = errors.New("history: barrier not totally ordered with process operations")
	ErrDuplicateValue   = errors.New("history: duplicate write value for location")
	ErrBadLockEpoch     = errors.New("history: malformed lock epoch")
	ErrCyclicCausality  = errors.New("history: causality relation is cyclic")
	ErrBadOp            = errors.New("history: malformed operation")
)

// History is a complete, well-formed history of a program execution: the set
// of operations of all processes together with the orders of Section 3.
// Build one with a Builder or record one from the runtime, then call Analyze.
type History struct {
	// NumProcs is the number of processes p_0 .. p_{NumProcs-1}.
	NumProcs int
	// Ops holds every operation; Op.ID is its index here.
	Ops []Op
	// extra holds explicit program-order edges added with AddEdge, used to
	// express fork/join structure between threads of one process.
	extra [][2]int
}

// New returns an empty history over n processes.
func New(n int) *History {
	return &History{NumProcs: n}
}

// AddEdge records an explicit program-order edge between two operations of
// the same process (for fork/join between threads, mirroring the paper's
// partial-order local histories). It is an error to relate operations of
// different processes this way.
func (h *History) AddEdge(from, to int) error {
	if from < 0 || from >= len(h.Ops) || to < 0 || to >= len(h.Ops) {
		return fmt.Errorf("edge %d->%d out of range: %w", from, to, ErrBadOp)
	}
	if h.Ops[from].Proc != h.Ops[to].Proc {
		return fmt.Errorf("edge %d->%d crosses processes: %w", from, to, ErrBadOp)
	}
	h.extra = append(h.extra, [2]int{from, to})
	return nil
}

// Analysis holds the derived relations of a history. All relations range
// over operation IDs and, unless noted otherwise, are transitively closed.
type Analysis struct {
	H *History
	// PO is the program order ->: the union of the per-strand sequence
	// orders and explicit edges, transitively closed.
	PO *Relation
	// RF is the reads-from relation |. : w(x)v |. r(x)v (not closed; it
	// relates write/await and write/read pairs directly). Reads of the
	// initial value (no matching write) have no RF predecessor.
	RF *Relation
	// LockOrder is |->lock over all lock objects, transitively closed.
	LockOrder *Relation
	// BarrierOrder is |->bar, transitively closed.
	BarrierOrder *Relation
	// AwaitOrder is |->await: matching write |-> await pairs.
	AwaitOrder *Relation
	// Sync is the union of the three synchronization orders.
	Sync *Relation
	// Causality is ~>: the transitive closure of PO, RF, and Sync.
	Causality *Relation

	// pramOrder caches ~>i,P per process; causalView caches ~>i,C;
	// slowOrder caches ~>i,S.
	pramOrder  map[int]*Relation
	causalView map[int]*Relation
	slowOrder  map[int]*Relation
}

// Analyze validates well-formedness and computes the derived relations. It
// returns an error if the history violates the well-formedness conditions of
// Section 3 or has a cyclic causality relation.
func (h *History) Analyze() (*Analysis, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	n := len(h.Ops)
	a := &Analysis{
		H:          h,
		pramOrder:  make(map[int]*Relation),
		causalView: make(map[int]*Relation),
		slowOrder:  make(map[int]*Relation),
	}

	a.PO = h.programOrder()
	a.PO.TransitiveClose()

	rf, err := h.readsFrom()
	if err != nil {
		return nil, err
	}
	a.RF = rf

	a.LockOrder = h.lockOrder()
	a.LockOrder.TransitiveClose()
	a.BarrierOrder = h.barrierOrder(a.PO)
	a.BarrierOrder.TransitiveClose()
	a.AwaitOrder = h.awaitOrder(rf)

	a.Sync = NewRelation(n)
	a.Sync.Union(a.LockOrder)
	a.Sync.Union(a.BarrierOrder)
	a.Sync.Union(a.AwaitOrder)

	a.Causality = NewRelation(n)
	a.Causality.Union(a.PO)
	a.Causality.Union(a.RF)
	a.Causality.Union(a.Sync)
	a.Causality.TransitiveClose()
	if a.Causality.HasCycle() {
		return nil, ErrCyclicCausality
	}
	return a, nil
}

// Validate checks the well-formedness conditions of Section 3 that are
// decidable on a completed history:
//
//  1. each unlock has a preceding matching lock by the same process on the
//     same object;
//  2. each barrier operation is totally ordered with respect to all
//     operations of its process;
//  3. lock epochs are well formed (a write epoch has exactly one wl/wu pair;
//     a read epoch has only rl/ru operations with matched pairs);
//  4. all writes to a location carry distinct values (the paper's
//     unique-values assumption, which makes reads-from well defined).
func (h *History) Validate() error {
	if err := h.validateLocks(); err != nil {
		return err
	}
	if err := h.validateBarriers(); err != nil {
		return err
	}
	return h.validateUniqueWrites()
}

func (h *History) validateLocks() error {
	// Per (proc, lock): scan in strand order, tracking held mode. A process
	// may be multithreaded; require lock discipline per strand.
	type strand struct{ proc, thread int }
	held := make(map[strand]map[string]OpKind) // lock -> RLock or WLock
	ordered := h.strandOrderedOps()
	for _, id := range ordered {
		op := h.Ops[id]
		if !op.Kind.IsLock() {
			continue
		}
		key := strand{op.Proc, op.Thread}
		if held[key] == nil {
			held[key] = make(map[string]OpKind)
		}
		m := held[key]
		switch op.Kind {
		case RLock, WLock:
			if _, ok := m[op.Lock]; ok {
				return fmt.Errorf("%s acquires %q while held: %w", op, op.Lock, ErrBadLockEpoch)
			}
			m[op.Lock] = op.Kind
		case RUnlock:
			if m[op.Lock] != RLock {
				return fmt.Errorf("%s: %w", op, ErrUnmatchedUnlock)
			}
			delete(m, op.Lock)
		case WUnlock:
			if m[op.Lock] != WLock {
				return fmt.Errorf("%s: %w", op, ErrUnmatchedUnlock)
			}
			delete(m, op.Lock)
		}
	}
	// Per (lock, epoch): either exactly one wl/wu pair, or only rl/ru.
	type epochKey struct {
		lock  string
		epoch int
	}
	epochs := make(map[epochKey][]Op)
	for _, op := range h.Ops {
		if op.Kind.IsLock() {
			k := epochKey{op.Lock, op.LockEpoch}
			epochs[k] = append(epochs[k], op)
		}
	}
	for k, ops := range epochs {
		var wl, wu, rl, ru int
		for _, op := range ops {
			switch op.Kind {
			case WLock:
				wl++
			case WUnlock:
				wu++
			case RLock:
				rl++
			case RUnlock:
				ru++
			}
		}
		if wl > 0 || wu > 0 {
			if wl != 1 || wu != 1 || rl != 0 || ru != 0 {
				return fmt.Errorf("lock %q epoch %d mixes write and read holds: %w",
					k.lock, k.epoch, ErrBadLockEpoch)
			}
		} else if rl != ru {
			return fmt.Errorf("lock %q epoch %d has %d rl but %d ru: %w",
				k.lock, k.epoch, rl, ru, ErrBadLockEpoch)
		}
	}
	return nil
}

func (h *History) validateBarriers() error {
	// A barrier op must be ordered with every other op of its process: in a
	// multithreaded process that requires explicit edges. With a single
	// thread per process the strand order already totalizes.
	po := h.programOrder()
	po.TransitiveClose()
	for _, b := range h.Ops {
		if b.Kind != Barrier {
			continue
		}
		for _, o := range h.Ops {
			if o.Proc != b.Proc || o.ID == b.ID {
				continue
			}
			if !po.Has(b.ID, o.ID) && !po.Has(o.ID, b.ID) {
				return fmt.Errorf("%s unordered with %s: %w", b, o, ErrBarrierUnordered)
			}
		}
	}
	return nil
}

func (h *History) validateUniqueWrites() error {
	type wkey struct {
		loc string
		val int64
	}
	seen := make(map[wkey]int)
	for _, op := range h.Ops {
		if op.Kind != Write {
			continue
		}
		k := wkey{op.Loc, op.Value}
		if prev, ok := seen[k]; ok {
			return fmt.Errorf("%s duplicates %s: %w", op, h.Ops[prev], ErrDuplicateValue)
		}
		seen[k] = op.ID
	}
	return nil
}

// strandOrderedOps returns op IDs sorted by (proc, thread, seq).
func (h *History) strandOrderedOps() []int {
	ids := make([]int, len(h.Ops))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		oa, ob := h.Ops[ids[a]], h.Ops[ids[b]]
		if oa.Proc != ob.Proc {
			return oa.Proc < ob.Proc
		}
		if oa.Thread != ob.Thread {
			return oa.Thread < ob.Thread
		}
		return oa.Seq < ob.Seq
	})
	return ids
}

// programOrder builds the direct program-order edges: consecutive operations
// of each (proc, thread) strand plus the explicit edges.
func (h *History) programOrder() *Relation {
	r := NewRelation(len(h.Ops))
	type strand struct{ proc, thread int }
	last := make(map[strand]int)
	for _, id := range h.strandOrderedOps() {
		op := h.Ops[id]
		key := strand{op.Proc, op.Thread}
		if prev, ok := last[key]; ok {
			r.Add(prev, id)
		}
		last[key] = id
	}
	for _, e := range h.extra {
		r.Add(e[0], e[1])
	}
	return r
}

// readsFrom matches each read and await to the write of the same location
// and value. A read with no matching write reads the initial value and has
// no reads-from predecessor.
func (h *History) readsFrom() (*Relation, error) {
	r := NewRelation(len(h.Ops))
	type wkey struct {
		loc string
		val int64
	}
	writes := make(map[wkey]int)
	for _, op := range h.Ops {
		if op.Kind == Write {
			writes[wkey{op.Loc, op.Value}] = op.ID
		}
	}
	for _, op := range h.Ops {
		if !op.readsMemory() {
			continue
		}
		if w, ok := writes[wkey{op.Loc, op.Value}]; ok {
			r.Add(w, op.ID)
		}
	}
	return r, nil
}

// lockOrder builds |->lock (Section 3.1.1) from the recorded lock epochs:
// operations in a smaller epoch precede operations in a larger epoch of the
// same lock, and within a write epoch wl precedes wu. rl/ru pairs within one
// read epoch are left unordered by |->lock (program order already orders
// each pair).
func (h *History) lockOrder() *Relation {
	r := NewRelation(len(h.Ops))
	byLock := make(map[string][]Op)
	for _, op := range h.Ops {
		if op.Kind.IsLock() {
			byLock[op.Lock] = append(byLock[op.Lock], op)
		}
	}
	for _, ops := range byLock {
		for _, a := range ops {
			for _, b := range ops {
				if a.ID == b.ID {
					continue
				}
				switch {
				case a.LockEpoch < b.LockEpoch:
					r.Add(a.ID, b.ID)
				case a.LockEpoch == b.LockEpoch && a.Kind == WLock && b.Kind == WUnlock:
					r.Add(a.ID, b.ID)
				}
			}
		}
	}
	return r
}

// barrierOrder builds |->bar (Section 3.1.2): for any operation o of process
// p_j and any process p_i, if o ->j b^k_j then o |-> b^k_i, and if
// b^k_j ->j o then b^k_i |-> o. po must be the transitively closed program
// order.
func (h *History) barrierOrder(po *Relation) *Relation {
	r := NewRelation(len(h.Ops))
	// barrier instances: (group, barrierID) -> per-process barrier op. A
	// subset barrier orders only its members.
	type instanceKey struct {
		group string
		id    int
	}
	instances := make(map[instanceKey][]int)
	for _, op := range h.Ops {
		if op.Kind == Barrier {
			k := instanceKey{op.BarrierGroup, op.BarrierID}
			instances[k] = append(instances[k], op.ID)
		}
	}
	for _, o := range h.Ops {
		for _, members := range instances {
			var own int = -1
			for _, bid := range members {
				if h.Ops[bid].Proc == o.Proc {
					own = bid
					break
				}
			}
			if own < 0 || own == o.ID {
				continue
			}
			if po.Has(o.ID, own) {
				for _, bid := range members {
					r.Add(o.ID, bid)
				}
			}
			if po.Has(own, o.ID) {
				for _, bid := range members {
					r.Add(bid, o.ID)
				}
			}
		}
	}
	return r
}

// awaitOrder builds |->await (Section 3.1.3): for each await a_i(x)v the
// matching write w_j(x)v precedes it. rf already holds exactly these edges
// for awaits; extract them.
func (h *History) awaitOrder(rf *Relation) *Relation {
	r := NewRelation(len(h.Ops))
	for _, op := range h.Ops {
		if op.Kind != Await {
			continue
		}
		for w := 0; w < len(h.Ops); w++ {
			if rf.Has(w, op.ID) {
				r.Add(w, op.ID)
			}
		}
	}
	return r
}

// CausalView returns ~>i,C for process proc: the causality relation
// restricted to the operations of proc plus all write and synchronization
// operations of other processes (the operations that may affect proc).
func (a *Analysis) CausalView(proc int) *Relation {
	if r, ok := a.causalView[proc]; ok {
		return r
	}
	keep := func(id int) bool {
		op := a.H.Ops[id]
		return op.Proc == proc || op.Kind == Write || op.Kind.IsSync()
	}
	r := a.Causality.Restrict(keep)
	a.causalView[proc] = r
	return r
}

// PRAMOrder returns ~>i,P for process proc per Definition 3:
//
//  1. take the transitive reduction of each synchronization order and union
//     them into |->PRAM;
//  2. keep only |->PRAM edges and reads-from edges with an endpoint at proc;
//  3. transitively close their union with program order, and project onto
//     all operations except reads of other processes.
func (a *Analysis) PRAMOrder(proc int) *Relation {
	if r, ok := a.pramOrder[proc]; ok {
		return r
	}
	touches := func(id int) bool { return a.H.Ops[id].Proc == proc }

	pram := NewRelation(len(a.H.Ops))
	pram.Union(a.LockOrder.TransitiveReduce())
	pram.Union(a.BarrierOrder.TransitiveReduce())
	pram.Union(a.AwaitOrder.TransitiveReduce())

	syncI := pram.RestrictEndpoint(touches)
	rfI := a.RF.RestrictEndpoint(touches)

	rel := NewRelation(len(a.H.Ops))
	rel.Union(a.PO)
	rel.Union(syncI)
	rel.Union(rfI)
	rel.TransitiveClose()

	keep := func(id int) bool {
		op := a.H.Ops[id]
		return op.Kind != Read || op.Proc == proc
	}
	r := rel.Restrict(keep)
	a.pramOrder[proc] = r
	return r
}

// SlowOrder returns ~>i,S for process proc: the observable relation of the
// Slow label, the lattice point below PRAM (Hutto & Ahamad's slow memory).
// The construction mirrors PRAMOrder with one relaxation: instead of the full
// program order of every process, the base order keeps
//
//   - all program-order edges of proc itself, and
//   - for every other process, only the program-order edges between memory
//     operations on the same location (the per-writer per-location FIFO).
//
// Synchronization edges (transitively reduced) and reads-from edges with an
// endpoint at proc are retained exactly as in Definition 3, so barriers and
// lock grant order still fence across locations; what Slow gives up is a
// remote writer's cross-location program order — w_j(x)v -> w_j(y)u no longer
// forces proc to observe x's new value before y's. SlowOrder(proc) is a
// subset of PRAMOrder(proc), so every PRAM-consistent history is
// Slow-consistent (the lattice inclusion the litmus hierarchy test pins).
func (a *Analysis) SlowOrder(proc int) *Relation {
	if r, ok := a.slowOrder[proc]; ok {
		return r
	}
	touches := func(id int) bool { return a.H.Ops[id].Proc == proc }

	reduced := NewRelation(len(a.H.Ops))
	reduced.Union(a.LockOrder.TransitiveReduce())
	reduced.Union(a.BarrierOrder.TransitiveReduce())
	reduced.Union(a.AwaitOrder.TransitiveReduce())

	syncI := reduced.RestrictEndpoint(touches)
	rfI := a.RF.RestrictEndpoint(touches)

	// The per-process slow base order: proc's own program order in full,
	// other processes' program order only between same-location memory ops.
	// a.PO is transitively closed, so the same-location restriction keeps
	// w_j(x)1 -> w_j(x)2 even with unrelated operations interleaved.
	slowPO := NewRelation(len(a.H.Ops))
	for u := 0; u < len(a.H.Ops); u++ {
		for v := 0; v < len(a.H.Ops); v++ {
			if !a.PO.Has(u, v) {
				continue
			}
			ou, ov := a.H.Ops[u], a.H.Ops[v]
			if ou.Proc == proc {
				slowPO.Add(u, v)
				continue
			}
			if ou.Loc != "" && ou.Loc == ov.Loc {
				slowPO.Add(u, v)
			}
		}
	}

	rel := NewRelation(len(a.H.Ops))
	rel.Union(slowPO)
	rel.Union(syncI)
	rel.Union(rfI)
	rel.TransitiveClose()

	keep := func(id int) bool {
		op := a.H.Ops[id]
		return op.Kind != Read || op.Proc == proc
	}
	r := rel.Restrict(keep)
	a.slowOrder[proc] = r
	return r
}
