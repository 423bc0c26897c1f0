package dsm

import "mixedmem/internal/history"

// ThreadHandle issues memory operations on behalf of one thread of a
// multithreaded process. The paper models local computations as partial
// orders (Section 3): operations of different threads of one process are
// unordered by program order unless fork/join edges relate them. Operations
// through a handle are recorded with the handle's thread ID; the node's own
// methods are Thread(0)'s (one replica per process, shared by its threads).
//
// Synchronization operations (locks, barriers) stay on the main thread:
// well-formedness requires each barrier to be totally ordered with all
// operations of its process (Section 3's fourth condition).
type ThreadHandle struct {
	n *Node
	t int
}

// Thread returns a handle issuing operations as thread t of this process.
// Thread 0 is the main thread (the node's own methods).
func (n *Node) Thread(t int) ThreadHandle {
	return ThreadHandle{n: n, t: t}
}

// ID returns the process identity.
func (h ThreadHandle) ID() int { return h.n.id }

// ThreadID returns the handle's thread number.
func (h ThreadHandle) ThreadID() int { return h.t }

// Write stores value at loc, recorded on this thread.
func (h ThreadHandle) Write(loc string, value int64) {
	h.n.write(OpSet, loc, value)
	h.record(history.Write, loc, value, history.LabelNone)
}

// WriteSC writes loc through its SC owner whatever its label, recorded on
// this thread.
func (h ThreadHandle) WriteSC(loc string, value int64) {
	h.n.scApply(OpSet, loc, value)
	h.record(history.Write, loc, value, history.LabelNone)
}

// ReadPRAM performs a PRAM read, recorded on this thread.
func (h ThreadHandle) ReadPRAM(loc string) int64 {
	v := h.n.readLocal(loc, true)
	h.record(history.Read, loc, v, history.LabelPRAM)
	return v
}

// ReadCausal performs a causal read, recorded on this thread. A PRAMOnly node
// keeps no causal view: the read is served, and recorded, as the PRAM read it
// degrades to — sound only for PRAM-consistent programs.
func (h ThreadHandle) ReadCausal(loc string) int64 {
	if h.n.pramOnly {
		return h.ReadPRAM(loc)
	}
	v := h.n.readCausalValue(loc)
	h.record(history.Read, loc, v, history.LabelCausal)
	return v
}

// ReadSlow performs a slow read, recorded on this thread.
func (h ThreadHandle) ReadSlow(loc string) int64 {
	v := h.n.readLocal(loc, false)
	h.record(history.Read, loc, v, history.LabelSlow)
	return v
}

// ReadSC performs a sequentially consistent read through the location's
// owner, recorded on this thread.
func (h ThreadHandle) ReadSC(loc string) int64 {
	v := h.n.scRoundTrip(0, loc, 0)
	h.n.statSCReads.Add(1)
	h.record(history.Read, loc, v, history.LabelSC)
	return v
}

// AwaitPRAM blocks until loc holds value in the PRAM view.
func (h ThreadHandle) AwaitPRAM(loc string, value int64) {
	h.n.awaitValue(loc, value, false)
	h.record(history.Await, loc, value, history.LabelNone)
}

// AwaitCausal blocks until loc holds value in the causal view.
func (h ThreadHandle) AwaitCausal(loc string, value int64) {
	h.n.awaitValue(loc, value, true)
	h.record(history.Await, loc, value, history.LabelNone)
}

// Add applies a commutative increment (not recorded; counter objects are
// abstract-data-type operations).
func (h ThreadHandle) Add(loc string, delta int64) { h.n.Add(loc, delta) }

// AddFloat applies a commutative float64 increment.
func (h ThreadHandle) AddFloat(loc string, delta float64) { h.n.AddFloat(loc, delta) }

// record appends the operation to the history being recorded, if any. It
// inlines, so an unrecorded operation — every one outside the checker's tests —
// pays a nil check and no call.
func (h ThreadHandle) record(kind history.OpKind, loc string, value int64, label history.Label) {
	if h.n.trace != nil {
		h.appendOp(kind, loc, value, label)
	}
}

// appendOp is kept out of line so that record stays within the inlining
// budget.
//
//go:noinline
func (h ThreadHandle) appendOp(kind history.OpKind, loc string, value int64, label history.Label) {
	h.n.trace.AppendOp(history.Op{
		Proc: h.n.id, Thread: h.t, Kind: kind, Loc: loc, Value: value, Label: label,
	})
}
