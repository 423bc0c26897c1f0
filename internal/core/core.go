// Package core is the paper's primary contribution as a programming model:
// mixed-consistency distributed shared memory with PRAM and causal reads,
// writes, read/write locks, barriers, await statements, and commutative
// counter objects.
//
// A System bundles the substrates — a message transport (the simulated
// fabric of internal/network by default; any transport.Transport that serves
// every node, such as the loopback tcp.Fleet, through Config.Transport), one
// replicated-memory node per process (internal/dsm), and the lock/barrier
// managers (internal/syncmgr) — behind one handle per process (Proc). A Peer
// is one such process alone, for deployments with one OS process per node
// (cmd/mixednode); both are wired by the same function. Programs are written
// against the Process interface, so the same program runs on either, and on
// any decorator that wraps one. Sequential consistency is not a second memory
// but the top point of the label lattice: a location labeled SC in
// Config.Labels is served by its owner's round trip (dsm/sc.go).
//
// A minimal program:
//
//	sys, _ := core.NewSystem(core.Config{Procs: 2})
//	defer sys.Close()
//	sys.Run(func(p *core.Proc) {
//	    if p.ID() == 0 {
//	        p.Write("data", 42)
//	        p.Write("ready", 1)
//	    } else {
//	        p.Await("ready", 1)
//	        _ = p.ReadPRAM("data") // 42: await orders the producer's writes
//	    }
//	})
package core

import (
	"fmt"
	"math"
	"sync"

	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
)

// Process is the programming interface of the mixed consistency model. Proc
// implements it; applications are written against it, so a harness can wrap a
// Proc (to time or count operations) and run them unchanged.
type Process interface {
	// ID returns the process identity, 0..N-1.
	ID() int
	// N returns the number of processes.
	N() int
	// Write stores value at loc (non-blocking; propagates asynchronously).
	Write(loc string, value int64)
	// ReadPRAM performs a PRAM-labeled read of loc (Definition 3).
	ReadPRAM(loc string) int64
	// ReadCausal performs a Causal-labeled read of loc (Definition 2).
	ReadCausal(loc string) int64
	// ReadSlow performs a Slow-labeled read of loc — the weakest point of
	// the label lattice, guaranteeing only per-location, per-writer FIFO.
	// Meaningful for locations labeled Slow in Config.Labels; elsewhere it
	// reads the same replica state as ReadPRAM.
	ReadSlow(loc string) int64
	// ReadSC performs an SC-labeled read of loc — the strongest point of
	// the lattice, a blocking round trip to the location's owner. Only
	// valid for locations labeled SC in Config.Labels.
	ReadSC(loc string) int64
	// Await blocks until loc holds value (Section 3.1.3), gated on the
	// causal view: when it returns, every update the matched write
	// transitively depends on has been applied locally, so causal reads
	// that follow satisfy Definition 2.
	Await(loc string, value int64)
	// AwaitPRAM blocks until loc holds value in the PRAM view only — the
	// plain busy-wait loop of PRAM reads of Section 6. Reads after it see
	// the matched write and its sender's FIFO prefix but not transitive
	// dependencies; pair it with PRAM reads.
	AwaitPRAM(loc string, value int64)
	// RLock/RUnlock/WLock/WUnlock are the lock operations of
	// Section 3.1.1.
	RLock(name string)
	RUnlock(name string)
	WLock(name string)
	WUnlock(name string)
	// Barrier blocks until all processes arrive (Section 3.1.2). The i-th
	// call on every process is barrier i.
	Barrier()
	// Add applies a commutative increment (negative to decrement) to a
	// counter object (Section 5.3's abstract objects).
	Add(loc string, delta int64)
	// AddFloat applies a commutative float64 increment to a location
	// holding a Float64bits-encoded value (the counter-object view of the
	// Cholesky column updates, Section 5.3).
	AddFloat(loc string, delta float64)
	// Forall runs body once per index on concurrent strands of this
	// process and waits for all — the fork/join parallel loop the paper's
	// Figure 3 coordinator uses. Bodies receive the index and a restricted
	// operation set; synchronization operations (locks, barriers) stay on
	// the main strand.
	Forall(count int, body func(i int, t ThreadOps))
}

// ThreadOps is the operation set available inside a Forall body: memory
// operations and awaits, but no locks or barriers (well-formedness requires
// barriers to be totally ordered with all operations of their process).
type ThreadOps interface {
	Write(loc string, value int64)
	ReadPRAM(loc string) int64
	ReadCausal(loc string) int64
	ReadSlow(loc string) int64
	ReadSC(loc string) int64
	Await(loc string, value int64)
	AwaitPRAM(loc string, value int64)
	Add(loc string, delta int64)
	AddFloat(loc string, delta float64)
}

// Config configures a mixed-consistency System.
type Config struct {
	// Procs is the number of application processes. Required.
	Procs int
	// Transport, when non-nil, is the message substrate to run on; it must
	// connect exactly Procs nodes and serve Recv for all of them (the
	// simulated fabric and the loopback tcp.Fleet do; a single
	// *tcp.Transport serves one node and is what NewPeer takes). When nil,
	// a simulated fabric with the configured Latency/Seed is created and
	// owned by the system. A caller-supplied transport is still closed by
	// System.Close.
	Transport transport.Transport
	// Latency models message delivery cost on the default simulated
	// fabric; the zero value is immediate delivery (deterministic test
	// mode). Ignored when Transport is set.
	Latency network.LatencyModel
	// Seed seeds latency jitter. Ignored when Transport is set.
	Seed int64
	// Propagation selects how critical-section updates reach the next
	// lock holder. Zero value means Lazy.
	Propagation syncmgr.PropagationMode
	// Record, when true, records all memory and synchronization operations
	// into a history for the checker. Recorded programs must write
	// distinct values per location.
	Record bool
	// PRAMOnly elides vector timestamps from update messages and keeps
	// only the PRAM view — the Section 6 optimization for programs whose
	// reads are all PRAM (Corollary 2's class). Causal reads degrade to
	// PRAM reads; only use for programs certified PRAM-consistent.
	PRAMOnly bool
	// Placement, when non-nil, restricts each location's updates to its
	// registered readers instead of broadcasting — Section 6's
	// access-pattern optimization. Causal-registered readers receive
	// dependency-stamped updates; the rest get the timestamp-elided fast
	// path. Lock-based propagation is unsupported under a placement.
	Placement *dsm.ScopeMap
	// Labels assigns lattice points to individual locations
	// (dsm.Config.Labels): Slow locations take the timestamp-elided
	// per-sender-FIFO fast path, SC locations are served by a blocking
	// central-owner protocol, PRAM and Causal document intent on the
	// default broadcast path. Unlabeled locations behave as before
	// (causal-capable broadcast). Every process of a system shares this
	// map. See dsm.Config.Labels for the soundness contracts.
	Labels map[string]history.Label
	// Batch configures the per-destination update outbox (dsm.BatchConfig):
	// writes enqueue into per-peer batches that flush on thresholds, a
	// linger timer, and every synchronization boundary. The zero value
	// sends one message per write per destination, as before.
	Batch dsm.BatchConfig
	// TraceCapacity, when positive, gives every node an event tracer
	// (internal/obs) with a ring of this many slots (rounded up to a power
	// of two, minimum 64). Zero disables tracing entirely — the hot paths
	// then carry only a nil check. Per-node snapshots come back through
	// Proc.Tracer.
	TraceCapacity int
}

// System is a running mixed-consistency memory over Procs processes.
type System struct {
	fabric transport.Transport
	procs  []*Proc
	trace  *history.Builder
}

// Proc is one process's handle on the system. Its memory operations are its
// main strand's (thread 0); its lock and barrier operations are recorded
// here, with the grant epochs and barrier indices the sync clients return.
type Proc struct {
	strand
	locks   *syncmgr.Client
	barrier *syncmgr.BarrierClient
	n       int
	// held maps each lock the main strand holds to its grant epoch, for the
	// recorded unlock; only written when recording.
	held map[string]int

	threadMu   sync.Mutex
	nextThread int
}

var _ Process = (*Proc)(nil)

// NewSystem builds the fabric and every process over it, and starts all
// receive loops; process 0 hosts the lock and barrier managers. Callers must
// Close the system.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("core: %d procs", cfg.Procs)
	}
	fabric := cfg.Transport
	if fabric == nil {
		f, err := network.New(network.Config{
			Nodes:   cfg.Procs,
			Latency: cfg.Latency,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: fabric: %w", err)
		}
		fabric = f
	} else if fabric.Nodes() != cfg.Procs {
		return nil, fmt.Errorf("core: transport connects %d nodes, config wants %d procs",
			fabric.Nodes(), cfg.Procs)
	}
	sys := &System{fabric: fabric}
	if cfg.Record {
		sys.trace = history.NewBuilder(cfg.Procs)
	}
	for i := 0; i < cfg.Procs; i++ {
		p, err := newProc(dsm.Config{
			ID: i, N: cfg.Procs, Transport: fabric,
			PRAMOnly: cfg.PRAMOnly, Scope: cfg.Placement,
			Batch: cfg.Batch, Labels: cfg.Labels,
		}, 0, cfg.Propagation, cfg.TraceCapacity, sys.trace)
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.procs = append(sys.procs, p)
	}
	return sys, nil
}

// newProc wires one process over dc.Transport: a dispatcher, the replicated-
// memory node (with an event tracer when traceCap is positive), the lock and
// barrier clients, and — on the manager process — the managers. Its
// operations are recorded into rec when that is non-nil. NewSystem calls it
// once per process and NewPeer once; the callers fill in the memory-layer
// half of dc, newProc the Handler and Tracer.
func newProc(dc dsm.Config, manager int, mode syncmgr.PropagationMode, traceCap int, rec *history.Builder) (*Proc, error) {
	if manager < 0 || manager >= dc.N {
		return nil, fmt.Errorf("core: manager proc %d out of range", manager)
	}
	if mode == 0 {
		mode = syncmgr.Lazy
	}
	d := syncmgr.NewDispatcher(dc.ID, dc.Transport)
	dc.Handler = d.Handle
	if traceCap > 0 {
		dc.Tracer = obs.NewTracer(dc.ID, traceCap)
	}
	node, err := dsm.NewNode(dc)
	if err != nil {
		return nil, fmt.Errorf("core: node %d: %w", dc.ID, err)
	}
	if dc.ID == manager {
		syncmgr.NewManager(d, mode)
		syncmgr.NewBarrierManager(d, dc.N)
	}
	lc := syncmgr.NewClient(node, d, manager, mode)
	bc := syncmgr.NewBarrierClient(node, d, manager)
	return &Proc{
		strand: strand{node: node, trace: rec, pramOnly: dc.PRAMOnly},
		locks:  lc, barrier: bc, n: dc.N, held: make(map[string]int),
	}, nil
}

// Proc returns the handle for process i.
func (s *System) Proc(i int) *Proc { return s.procs[i] }

// Procs returns the number of processes.
func (s *System) Procs() int { return len(s.procs) }

// Run executes body once per process, each on its own goroutine, and waits
// for all of them — the usual SPMD driver for the paper's applications.
func (s *System) Run(body func(p *Proc)) {
	var wg sync.WaitGroup
	for _, p := range s.procs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(p)
		}()
	}
	wg.Wait()
}

// History returns the recorded history, or nil when Record was false. Take
// it only after all processes have finished.
func (s *System) History() *history.History {
	if s.trace == nil {
		return nil
	}
	return s.trace.History()
}

// NetStats returns the transport's message accounting.
func (s *System) NetStats() network.Stats { return s.fabric.Stats() }

// Fabric returns the underlying simulated fabric, mainly so tests and
// experiments can build adversarial delivery schedules with Hold/Release.
// It returns nil when the system runs on a different transport backend.
func (s *System) Fabric() *network.Fabric {
	f, _ := s.fabric.(*network.Fabric)
	return f
}

// Close shuts down the fabric and all nodes.
func (s *System) Close() {
	s.fabric.Close()
	for _, p := range s.procs {
		p.node.Close()
	}
}

// ID returns the process identity.
func (p *Proc) ID() int { return p.node.ID() }

// N returns the number of processes.
func (p *Proc) N() int { return p.n }

// Read performs a read with the given label, for code that selects the
// consistency level dynamically. LabelNone reads as PRAM, matching the
// historical default of this method.
func (p *Proc) Read(loc string, label history.Label) int64 {
	switch label {
	case history.LabelCausal:
		return p.ReadCausal(loc)
	case history.LabelSlow:
		return p.ReadSlow(loc)
	case history.LabelSC:
		return p.ReadSC(loc)
	default:
		return p.ReadPRAM(loc)
	}
}

// RLock acquires a read lock on name.
func (p *Proc) RLock(name string) {
	epoch := p.locks.RLock(name)
	p.recordLock(history.RLock, name, epoch)
}

// RUnlock releases a read lock on name.
func (p *Proc) RUnlock(name string) {
	p.recordUnlock(history.RUnlock, name)
	p.locks.RUnlock(name)
}

// WLock acquires the write lock on name.
func (p *Proc) WLock(name string) {
	epoch := p.locks.WLock(name)
	p.recordLock(history.WLock, name, epoch)
}

// WUnlock releases the write lock on name.
func (p *Proc) WUnlock(name string) {
	p.recordUnlock(history.WUnlock, name)
	p.locks.WUnlock(name)
}

// recordLock records an acquire in its grant epoch and remembers the epoch
// for the matching unlock.
func (p *Proc) recordLock(kind history.OpKind, name string, epoch int) {
	if p.trace != nil {
		p.held[name] = epoch
		p.appendOp(history.Op{Kind: kind, Lock: name, LockEpoch: epoch})
	}
}

// recordUnlock records a release, before it happens, in the held epoch.
func (p *Proc) recordUnlock(kind history.OpKind, name string) {
	if p.trace != nil {
		p.appendOp(history.Op{Kind: kind, Lock: name, LockEpoch: p.held[name]})
		delete(p.held, name)
	}
}

// Barrier blocks until all processes arrive and all prior-phase updates are
// applied locally.
func (p *Proc) Barrier() {
	k := p.barrier.Barrier()
	p.recordBarrier(k, "")
}

// BarrierGroup blocks until every process in members arrives at the named
// group's next barrier — the paper's subset barrier. All members must call
// it with the same name and member set; only updates from members are
// awaited.
func (p *Proc) BarrierGroup(name string, members []int) {
	k := p.barrier.BarrierGroup(name, members)
	p.recordBarrier(k, name)
}

// recordBarrier records the process's arrival at barrier k of group.
func (p *Proc) recordBarrier(k int, group string) {
	if p.trace != nil {
		p.appendOp(history.Op{Kind: history.Barrier, BarrierID: k, BarrierGroup: group})
	}
}

// FlushUpdates sends every pending outbox batch immediately. A no-op unless
// the system was built with Config.Batch enabled; programs that hand off
// through channels or other out-of-band signals (rather than the model's
// awaits, locks, and barriers, which all flush implicitly) call it before
// signaling.
func (p *Proc) FlushUpdates() { p.node.FlushUpdates() }

// Tracer returns the process's event tracer, or nil when the system was
// built without Config.TraceCapacity. Snapshot it after the workload (or at
// any quiescent point) to feed the obs explainer and exporters.
func (p *Proc) Tracer() *obs.Tracer { return p.node.Tracer() }

// MemStats returns the process's memory-operation counters.
func (p *Proc) MemStats() dsm.Stats { return p.node.Stats() }

// LockStats returns the process's lock-client counters.
func (p *Proc) LockStats() syncmgr.ClientStats { return p.locks.Stats() }

// BarrierStats returns the process's barrier-client counters.
func (p *Proc) BarrierStats() syncmgr.BarrierStats { return p.barrier.Stats() }

// WriteFloat stores a float64 at loc via its bit pattern. Programs recorded
// for the checker should prefer integer values; float writes are for the
// numeric applications.
func WriteFloat(p Process, loc string, value float64) {
	p.Write(loc, int64(math.Float64bits(value)))
}

// ReadPRAMFloat reads a float64 stored with WriteFloat using a PRAM read.
func ReadPRAMFloat(p Process, loc string) float64 {
	return math.Float64frombits(uint64(p.ReadPRAM(loc)))
}

// ReadCausalFloat reads a float64 stored with WriteFloat using a causal
// read.
func ReadCausalFloat(p Process, loc string) float64 {
	return math.Float64frombits(uint64(p.ReadCausal(loc)))
}

// ReadSlowFloat reads a float64 stored with WriteFloat using a slow read —
// per-location FIFO only, the weakest point of the lattice.
func ReadSlowFloat(p Process, loc string) float64 {
	return math.Float64frombits(uint64(p.ReadSlow(loc)))
}
