package history

import "sync"

// Builder constructs histories incrementally. It is safe for concurrent use:
// a recording core.System has every strand of every process — each Proc's
// main strand and each Forall body — append its operations to one shared
// builder. Sequence numbers within each (proc, thread) strand are assigned in
// call order.
type Builder struct {
	mu      sync.Mutex
	h       *History
	strands map[[2]int]int
	// lastOp remembers the most recent op ID of each strand, for fork/join
	// edge bookkeeping.
	lastOp map[[2]int]int
	// pendingFork[(proc,thread)] is an op ID that must program-order
	// precede the strand's next op (the fork point).
	pendingFork map[[2]int]int
	// pendingJoin[(proc,thread)] are op IDs that must program-order
	// precede the strand's next op (the joined threads' last ops).
	pendingJoin map[[2]int][]int
	// epochs assigns lock epochs automatically for histories built purely
	// through the Lock/Unlock convenience methods (tests). A recording
	// System appends the real grant epochs with AppendOp instead.
	epochs map[string]int
}

// NewBuilder returns a builder for a history over n processes.
func NewBuilder(n int) *Builder {
	return &Builder{
		h:           New(n),
		strands:     make(map[[2]int]int),
		lastOp:      make(map[[2]int]int),
		pendingFork: make(map[[2]int]int),
		pendingJoin: make(map[[2]int][]int),
		epochs:      make(map[string]int),
	}
}

// AppendOp adds a fully specified operation (Seq and ID are assigned by the
// builder) and returns its ID. Pending fork/join edges registered for the
// operation's strand are materialized as explicit program-order edges.
func (b *Builder) AppendOp(op Op) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := [2]int{op.Proc, op.Thread}
	op.Seq = b.strands[key]
	b.strands[key]++
	op.ID = len(b.h.Ops)
	b.h.Ops = append(b.h.Ops, op)
	b.lastOp[key] = op.ID
	if from, ok := b.pendingFork[key]; ok {
		delete(b.pendingFork, key)
		_ = b.h.AddEdge(from, op.ID)
	}
	if joins := b.pendingJoin[key]; len(joins) > 0 {
		delete(b.pendingJoin, key)
		for _, j := range joins {
			_ = b.h.AddEdge(j, op.ID)
		}
	}
	return op.ID
}

// Fork records that the threads listed in children are forked by strand
// (proc, parent) at its current position: each child's next (first) op will
// be program-order after the parent's most recent op. Mirrors the paper's
// partial-order local histories (the forall construct of Figure 3).
func (b *Builder) Fork(proc, parent int, children []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	from, ok := b.lastOp[[2]int{proc, parent}]
	if !ok {
		return // nothing recorded yet on the parent; children float free
	}
	for _, c := range children {
		b.pendingFork[[2]int{proc, c}] = from
	}
}

// Join records that strand (proc, parent) joins the listed child threads:
// the parent's next op will be program-order after each child's most recent
// op.
func (b *Builder) Join(proc, parent int, children []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := [2]int{proc, parent}
	for _, c := range children {
		if last, ok := b.lastOp[[2]int{proc, c}]; ok {
			b.pendingJoin[key] = append(b.pendingJoin[key], last)
		}
	}
}

// Read records a labeled read by proc of loc returning value.
func (b *Builder) Read(proc int, loc string, value int64, label Label) int {
	return b.AppendOp(Op{Proc: proc, Kind: Read, Loc: loc, Value: value, Label: label})
}

// Write records a write by proc of value to loc.
func (b *Builder) Write(proc int, loc string, value int64) int {
	return b.AppendOp(Op{Proc: proc, Kind: Write, Loc: loc, Value: value})
}

// Await records an await(loc = value) by proc.
func (b *Builder) Await(proc int, loc string, value int64) int {
	return b.AppendOp(Op{Proc: proc, Kind: Await, Loc: loc, Value: value})
}

// Barrier records proc's arrival at barrier k.
func (b *Builder) Barrier(proc, k int) int {
	return b.AppendOp(Op{Proc: proc, Kind: Barrier, BarrierID: k})
}

// WLockEpoch records a write-lock acquire by proc on lock in a fresh epoch
// and returns the epoch, which the matching WUnlockEpoch must use.
func (b *Builder) WLockEpoch(proc int, lock string) int {
	b.mu.Lock()
	epoch := b.epochs[lock]
	b.epochs[lock]++
	b.mu.Unlock()
	b.AppendOp(Op{Proc: proc, Kind: WLock, Lock: lock, LockEpoch: epoch})
	return epoch
}

// WUnlockEpoch records the write-unlock matching epoch.
func (b *Builder) WUnlockEpoch(proc int, lock string, epoch int) int {
	return b.AppendOp(Op{Proc: proc, Kind: WUnlock, Lock: lock, LockEpoch: epoch})
}

// RLockEpoch records a read-lock acquire by proc on lock. Concurrent readers
// that should share an epoch pass the same epoch value; pass a fresh value
// from NextEpoch for a new read epoch.
func (b *Builder) RLockEpoch(proc int, lock string, epoch int) int {
	return b.AppendOp(Op{Proc: proc, Kind: RLock, Lock: lock, LockEpoch: epoch})
}

// RUnlockEpoch records the read-unlock matching epoch.
func (b *Builder) RUnlockEpoch(proc int, lock string, epoch int) int {
	return b.AppendOp(Op{Proc: proc, Kind: RUnlock, Lock: lock, LockEpoch: epoch})
}

// NextEpoch allocates and returns a fresh epoch number for lock.
func (b *Builder) NextEpoch(lock string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	epoch := b.epochs[lock]
	b.epochs[lock]++
	return epoch
}

// History returns the built history. The builder must not be used after.
func (b *Builder) History() *History {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.h
}

// Len returns the number of operations recorded so far.
func (b *Builder) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.h.Ops)
}
