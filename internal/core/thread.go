package core

import (
	"sync"

	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
)

// strand is one program-order chain of a process: its main strand (thread 0,
// embedded in Proc) or one Forall body. The paper models local computations
// as partial orders (Section 3), and the handshake solver's coordinator uses
// a forall construct (Figure 3). A strand runs each memory operation on the
// process's node and, when the system records a history, appends it under
// the strand's thread ID — the one place an execution is recorded.
// Synchronization operations (locks, barriers) are Proc's alone:
// well-formedness requires every barrier to be totally ordered with all
// operations of its process, which only the main strand can guarantee.
type strand struct {
	node *dsm.Node
	// trace is the system's history, nil when not recording.
	trace *history.Builder
	// pramOnly mirrors dsm.Config.PRAMOnly: such a node serves a causal
	// read as a PRAM read, and it is recorded as one.
	pramOnly bool
	thread   int
}

var _ ThreadOps = (*strand)(nil)

// Write stores value at loc and propagates the update.
func (s *strand) Write(loc string, value int64) {
	s.node.Write(loc, value)
	s.record(history.Write, loc, value, history.LabelNone)
}

// ReadPRAM performs a PRAM read of loc.
func (s *strand) ReadPRAM(loc string) int64 {
	v := s.node.ReadPRAM(loc)
	s.record(history.Read, loc, v, history.LabelPRAM)
	return v
}

// ReadCausal performs a causal read of loc. A PRAMOnly node keeps no causal
// view: the read is served, and recorded, as the PRAM read it degrades to —
// sound only for PRAM-consistent programs.
func (s *strand) ReadCausal(loc string) int64 {
	if s.pramOnly {
		return s.ReadPRAM(loc)
	}
	v := s.node.ReadCausal(loc)
	s.record(history.Read, loc, v, history.LabelCausal)
	return v
}

// ReadSlow performs a slow read of loc (per-location FIFO only).
func (s *strand) ReadSlow(loc string) int64 {
	v := s.node.ReadSlow(loc)
	s.record(history.Read, loc, v, history.LabelSlow)
	return v
}

// ReadSC performs a sequentially consistent read of loc through its owner
// (a blocking round trip). Only valid for locations labeled SC in
// Config.Labels.
func (s *strand) ReadSC(loc string) int64 {
	v := s.node.ReadSC(loc)
	s.record(history.Read, loc, v, history.LabelSC)
	return v
}

// Await blocks until loc holds value in the causal view.
func (s *strand) Await(loc string, value int64) {
	s.node.AwaitCausal(loc, value)
	s.record(history.Await, loc, value, history.LabelNone)
}

// AwaitPRAM blocks until loc holds value in the PRAM view.
func (s *strand) AwaitPRAM(loc string, value int64) {
	s.node.AwaitPRAM(loc, value)
	s.record(history.Await, loc, value, history.LabelNone)
}

// Add applies a commutative increment to a counter object. Counter
// operations are abstract-data-type operations, not reads or writes, and
// are not recorded.
func (s *strand) Add(loc string, delta int64) { s.node.Add(loc, delta) }

// AddFloat applies a commutative float64 increment to a counter object.
func (s *strand) AddFloat(loc string, delta float64) { s.node.AddFloat(loc, delta) }

// record appends a memory operation to the history being recorded, if any.
// It inlines, so an unrecorded operation — every one outside the checker's
// tests — pays a nil check and no call.
func (s *strand) record(kind history.OpKind, loc string, value int64, label history.Label) {
	if s.trace != nil {
		s.appendOp(history.Op{Kind: kind, Loc: loc, Value: value, Label: label})
	}
}

// appendOp records op on this strand. It is kept out of line so that record
// stays within the inlining budget.
//
//go:noinline
func (s *strand) appendOp(op history.Op) {
	op.Proc, op.Thread = s.node.ID(), s.thread
	s.trace.AppendOp(op)
}

// Forall runs body once per index on concurrent strands of this process and
// waits for all of them — the fork/join parallel loop of Figure 3. When the
// system records a history, each strand's operations carry a fresh thread
// ID, and fork/join program-order edges connect the main strand to its
// children, so the recorded local history is the partial order the paper's
// model prescribes.
//
// Bodies run concurrently on one replica: their operations interleave
// arbitrarily (they are unordered by program order), which is exactly the
// intra-process concurrency the model permits.
func (p *Proc) Forall(count int, body func(i int, t ThreadOps)) {
	if count <= 0 {
		return
	}
	p.threadMu.Lock()
	base := p.nextThread + 1 // thread 0 is the main strand
	p.nextThread += count
	p.threadMu.Unlock()

	ids := make([]int, count)
	for i := range ids {
		ids[i] = base + i
	}
	if p.trace != nil {
		p.trace.Fork(p.ID(), 0, ids)
	}
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		s := p.strand
		s.thread = ids[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(i, &s)
		}()
	}
	wg.Wait()
	if p.trace != nil {
		p.trace.Join(p.ID(), 0, ids)
	}
}
