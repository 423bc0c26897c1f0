// Package dsm implements the replicated distributed-shared-memory runtime of
// Section 6 of the paper. Every process keeps a full local copy of the
// memory; writes update the local copy and broadcast an update message; both
// kinds of reads are non-blocking and return local values.
//
// Each replica maintains two views of memory:
//
//   - the PRAM view applies updates in receive order. The fabric's channels
//     are FIFO, so per-sender order is preserved and a read of this view is
//     a PRAM read ("returns the most recent value", Section 6);
//   - the causal view applies an update only when every causally preceding
//     update has been applied, so a read of this view is a causal read ("can
//     return a value only if all preceding operations have been performed
//     locally", Section 6).
//
// That is one protocol, and the runtime has one path for it. Section 6's two
// optimizations — eliding timestamps where only PRAM reads follow, placing
// updates by access pattern — and the lattice's Slow label only change the
// ordering obligation a copy of an update carries (deliver.go): nothing,
// the sender's order, that plus a vector timestamp, or that plus a row of the
// address matrix. The obligation is decided once when the copy is stamped and
// once when it is received; the delivery code consults nothing else.
//
// The node keeps four per-sender vectors, all in one unit, the sender's
// sequence number: the last one sent to each destination, received into the
// PRAM view, settled, and observed (the fence). The synchronization layer
// builds on the first three — the barrier protocol reports what was sent, and
// barriers and lazy locks wait for it to settle — and on per-location
// invalidation (for demand-driven lock propagation). Counter objects with commutative add
// operations (the Cholesky optimization of Section 5.3) are updates of kind
// add.
//
// # Layers, files and locks
//
// A write crosses issue -> outbox -> transport -> deliver; reads and the
// synchronization layer's counts sit beside that path. One file per layer
// (DESIGN.md §8):
//
//	node.go     Config, lifecycle, the receive loop, Stats        –
//	cell.go     location values: one insert-only table, shards    cellMu, shard.mu
//	issue.go    number, apply locally, stamp, emit per reader     clockMu
//	outbox.go   per-destination pending batches and their flush   outboxMu
//	deliver.go  senders' names; obligations; apply, park/release  clockMu
//	read.go     the four reads, the observation fence, awaits     lock-free
//	counts.go   sequence vectors, write log, invalidations        clockMu
//	sc.go       the SC owner protocol                             scMu
//	scope.go    reader registration                               –
//	codec.go    wire formats                                      –
//
// Reads are lock-free: a probe of the node's location table (internal/loctab;
// one hash of the name keys the table and picks the shard) and an atomic load
// from the location's cell, which holds both views' values and the PRAM
// last-writer. The table's mutex, cellMu, serializes only the insert of a new
// location; shard mutexes only invalidation bookkeeping and await
// registration.
// Protocol state — the sequence vectors, the address matrix,
// the per-sender queues of parked delivery groups, the write log — lives
// under the clock lock; causalApplied is mutated only under it but stored as
// atomics so the read paths consult it without. All destinations' outboxes
// share one lock, so the linger flusher never contends with the clock-guarded
// paths. The observation fence is an atomic vector raised by CAS-max.
//
// Lock order: clockMu -> shard.mu -> outboxMu (each level optional, never
// taken in reverse), with cellMu a leaf that any of them may hold. Fence
// soundness across the lock-free read path relies on store order: appliers
// store a cell's last-writer before its value, and readers load the value
// before the last-writer, so any value a read observes is covered by the
// fence entry the read raises.
package dsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/slab"
	"mixedmem/internal/transport"
)

// Handler receives non-update messages delivered to a node. Handlers run on
// the node's receive loop and must not block; hand work that can wait to a
// channel or goroutine. A component that serves its own node without the
// transport (syncmgr's dispatcher, for a message the node addresses to
// itself) also calls the handler in place, on the sending goroutine, so a
// handler must not expect to be entered from the receive loop alone, and must
// not be entered with a lock held that it takes itself.
type Handler func(network.Message)

// Config configures a Node.
type Config struct {
	// ID is this process's identity, 0..N-1.
	ID int
	// N is the number of processes.
	N int
	// Transport is the message-passing substrate: the shared simulated
	// fabric (all nodes in one process) or a per-process wire transport
	// such as internal/transport/tcp (one node per OS process).
	Transport transport.Transport
	// Handler receives non-update messages (lock and barrier protocol
	// traffic). May be nil when the node runs no synchronization protocol.
	Handler Handler
	// PRAMOnly elides vector timestamps from updates and maintains only
	// the PRAM view — the Section 6 optimization: "the extra overhead of
	// sending a timestamp in each message and performing the updates in
	// the timestamp order can be avoided if ... all read operations of the
	// program following a write operation are PRAM operations." Causal
	// reads and causal awaits degrade to their PRAM counterparts, so the
	// mode is only sound for programs certified PRAM-consistent (see
	// check.PRAMConsistent).
	PRAMOnly bool
	// Scope, when non-nil, restricts each location's updates to its
	// registered readers instead of broadcasting — Section 6's closing
	// remark on memory operations: "the overhead of broadcasting messages
	// for each update ... may be avoided by making optimizations based on
	// the patterns of accesses to shared variables." Causal-registered
	// readers receive dependency-stamped updates delivered through the
	// causal view; PRAM-registered readers take the timestamp-elided fast
	// path end to end; unregistered locations broadcast with full causal
	// metadata. Lock-based propagation is unsupported under a scope; the
	// barrier protocol works unchanged because it compares the last sequence
	// number a sender sent a destination with the last one the destination
	// settled from it. See ScopeMap for the registration contract.
	Scope *ScopeMap
	// Labels maps locations to points of the consistency lattice
	// Slow < PRAM < Causal < SC, selecting both the propagation protocol of
	// the location's writes and the read each Node.Read of it performs:
	//
	//   - LabelSlow: writes are timestamp-elided and the location's
	//     causal-view delivery waits only on the sender's own FIFO — the
	//     slow-memory contract (per-location per-writer order, nothing
	//     across locations). Reads take the lock-free local path and never
	//     raise the observation fence. Like a PRAM-registered scoped
	//     location, a Slow location must feed no causal chain: no later
	//     causal read may depend on what its reads observed.
	//   - LabelPRAM: writes propagate with full causal metadata (so the
	//     observation fence stays sound); reads are PRAM reads.
	//   - LabelCausal: the default — identical to an unlabeled location.
	//   - LabelSC: the location lives at its owner replica (a deterministic
	//     hash of the location name) and every access is a blocking round
	//     trip there, the central-server protocol of sequential consistency.
	//     SC locations never broadcast; replicas other than the owner hold
	//     no copy, so only SC accesses may touch them.
	//
	// Every node of a system must be built with the same map. Locations
	// absent from the map default to Causal. A label must be one of the four
	// lattice points; SC locations must not appear in Scope.
	Labels map[string]history.Label
	// Batch configures the per-destination update outbox. The zero value
	// batches only what a write-locked critical section writes (Hold): every
	// other write is one message per destination.
	Batch BatchConfig
	// Tracer, when non-nil, records protocol events (write issue, outbox
	// enqueue/flush, receive, apply, delivery-group release, waits, SC round
	// trips) into the node's fixed-capacity ring for offline happens-before
	// reconstruction. Nil — the default — compiles every record site down to
	// a nil check; the hot paths stay allocation-free either way.
	Tracer *obs.Tracer
}

// Stats counts a node's memory activity. It is also the "mem" section of
// the metrics registry: the JSON tags are the served keys.
type Stats struct {
	Writes      uint64 `json:"writes"`
	PRAMReads   uint64 `json:"pramReads"`
	CausalReads uint64 `json:"causalReads"`
	SlowReads   uint64 `json:"slowReads"`
	SCReads     uint64 `json:"scReads"`
	SCWrites    uint64 `json:"scWrites"`
	Awaits      uint64 `json:"awaits"`
	// Blocked is the total time spent waiting in Await, WaitReceived,
	// WaitCausalApplied, SC round trips, and invalidation stalls: the sum of
	// the four causes of BlockedByCause, which partition it.
	Blocked        time.Duration `json:"blockedNs"`
	BlockedByCause `json:"blockedByCauseNs"`
	// MalformedUpdates counts received updates from a misconfigured or
	// corrupt peer: a sequence number not above the sender's last one here
	// (without a scope, one that skips ahead or lies outside its batch's
	// run), dependency metadata that does not match the system size — the
	// matrix of a scoped-causal update, the timestamp of a full-broadcast
	// one — or a location the sender never named here. Such updates reach
	// the PRAM view at most; they keep their place in the sender's order and
	// settle there without moving its sequence numbers backwards, so neither
	// the sequence waits nor the sender's later updates stall on them, and
	// this counter is the diagnostic that it happened.
	MalformedUpdates uint64 `json:"malformedUpdates"`
	// PendingGroups is the number of delivery groups, own writes included,
	// parked behind an unmet causal dependency, theirs or an earlier parked
	// group's of their sender; PendingGroupsMax is its high-water mark over
	// the node's life. A backlog that only grows names a sender whose
	// updates are not arriving.
	PendingGroups    uint64 `json:"pendingGroups"`
	PendingGroupsMax uint64 `json:"pendingGroupsMax"`
	// Flushes counts the outbox's flushed frames, and the entries they
	// carried, by what closed the batch; all zero on a node without an outbox.
	Flushes FlushesByCause `json:"flushes"`
}

// FlushesByCause splits Stats.Flushes by what closed each batch.
type FlushesByCause struct {
	// Threshold: the batch reached BatchConfig.MaxUpdates entries or 16 KiB.
	Threshold FlushCount `json:"threshold"`
	// Sync: a synchronization boundary (FlushUpdates), the close of a hold,
	// a write made outside any hold, or Close.
	Sync FlushCount `json:"sync"`
	// Linger: the linger flusher, or, while a hold is open, a run of reads
	// with no write between them (heldReadsPerFlush), which stands in for it.
	Linger FlushCount `json:"linger"`
	// Epoch: a scoped-causal write found the batch's dependency matrix
	// older than a remote matrix the node merged since.
	Epoch FlushCount `json:"epoch"`
}

// FlushCount is a number of flushed frames and of the entries they carried
// (coalesced-away updates are not entries).
type FlushCount struct {
	Frames  uint64 `json:"frames"`
	Entries uint64 `json:"entries"`
}

// BlockedByCause splits Stats.Blocked by wait cause.
type BlockedByCause struct {
	// BlockedAwait is the Await/AwaitAtLeast portion of Blocked.
	BlockedAwait time.Duration `json:"await"`
	// BlockedCausalWait covers the causal-machinery waits: observation-fence
	// raises on causal reads, WaitReceived, and WaitCausalApplied.
	BlockedCausalWait time.Duration `json:"causal-wait"`
	// BlockedInvalidation is the time reads stalled on lock-protocol
	// invalidations awaiting their update.
	BlockedInvalidation time.Duration `json:"invalidation"`
	// BlockedSC is the time spent inside SC owner round trips.
	BlockedSC time.Duration `json:"sc"`
}

// Node is one process's replica of the shared memory.
type Node struct {
	id     int
	n      int
	fabric transport.Transport
	handle Handler

	// cells holds every location's cell, keyed by its whole hash; cellMu
	// serializes the inserts, the one per new location (cell.go).
	cellMu sync.Mutex
	cells  loctab.Table[cell]
	// shards partition the location space for reads, awaits and
	// invalidations (cell.go).
	shards [shardCount]shard

	// clockMu guards the protocol state below it: the sequence vectors, the
	// parked delivery groups, the write log, and the address matrix.
	// clockCond is broadcast on every apply and write, and waited on by the
	// sequence waits, fence waits, and invalidation stalls.
	clockMu   sync.Mutex
	clockCond *sync.Cond

	// The four per-sender vectors hold one unit, a sender's sequence number
	// (every copy carries it), under every configuration: the channels are
	// FIFO, so "the last update from j" names the prefix of j's stream this
	// node was addressed, holes and all. sent[j] is the last one sent to
	// process j, the vector the barrier protocol of Section 6 reports.
	sent []uint64
	// recvd[j] is the last one from process j applied to the PRAM view, and
	// recvd[id] the last one this node assigned. Under full broadcast it is
	// the dependency clock obVector writes are stamped with.
	recvd []uint64
	// causalApplied[j] is the last one from j, own writes included, that
	// settled: every group settles in its sender's order, an obNone group
	// without entering the causal view. Mutated under clockMu, loadable
	// lock-free.
	causalApplied avc
	// fence[j] is the observation fence: the last one from j this process
	// has *observed* through PRAM reads and PRAM awaits. A PRAM read creates
	// a reads-from edge in the causality relation, so by Definition 2 every
	// later causal read of this process must reflect the observed update's
	// causal context; ReadCausal therefore waits until causalApplied covers
	// the fence, and so must own writes (issue). Raised lock-free by CAS-max.
	fence avc
	// pending[j] queues, in arrival order, the delivery groups (single
	// updates or whole batches) from j, own writes if j is id, whose
	// obligation is not met yet. Every obligation includes the sender's own
	// order, so only a queue's head is ever tried: the channels are FIFO, and
	// the queue is all that keeps a sender's groups in that order. arrivals
	// stamps each group so a drain can visit heads in global arrival order.
	// parked counts the groups across all queues and parkedMax is its
	// high-water mark: mutated under clockMu, atomics so Stats reads them
	// without it.
	pending   []senderQueue
	arrivals  uint64
	parked    atomic.Uint64
	parkedMax atomic.Uint64
	// ords counts the locations this node has written, the ordinals it has
	// given out (issue); refs[j] is what sender j has named to it: the
	// locations j's updates define, by ordinal (deliver.go). Both under
	// clockMu.
	ords uint32
	refs []refTable
	// writeLog records this node's own updates in order, so a lock client
	// can collect the write-set of a critical section for demand-driven
	// propagation. logBase is the absolute index of writeLog[0]: marks are
	// absolute positions, so the prefix no critical section still needs
	// can be trimmed without invalidating outstanding marks.
	//
	// Logging is lazy: logOn flips on at the first WriteMark call. A mark's
	// absolute position is the node's last own sequence number (recvd[id]), so
	// enabling sets logBase to that count and positions stay continuous.
	// Before the first mark no WritesSince call can name an earlier position,
	// and a node that never uses locks never pays the log's append or memory
	// cost.
	writeLog []WriteRecord
	logBase  int
	logOn    bool

	statWrites    atomic.Uint64
	statSCReads   atomic.Uint64
	statSCWrites  atomic.Uint64
	statAwaits    atomic.Uint64
	statMalformed atomic.Uint64
	// Per-cause blocked time (nanoseconds); every wait site adds its
	// interval to exactly one.
	statBlockedAwait  atomic.Int64
	statBlockedCausal atomic.Int64
	statBlockedSC     atomic.Int64
	statBlockedInval  atomic.Int64

	// obs is the event tracer (Config.Tracer); nil means tracing is off and
	// every record site is a single predictable-branch nil check.
	obs *obs.Tracer

	// pramOnly and scopedCausal are the configuration the two obligation
	// functions read (deliver.go): no causal view at all, or a scope with a
	// live causal view, where causal delivery runs on the address matrix
	// instead of vector timestamps.
	pramOnly     bool
	scopedCausal bool
	// scopeTargets holds the compiled per-location reader lists when
	// Config.Scope is set; everyone is the entry of every other location:
	// all peers, as causal readers.
	scopeTargets map[string]scopeEntry
	everyone     scopeEntry
	// addr is the address matrix (scopedCausal only): addr[p][k] is the
	// latest update from sender k addressed to process p that this node
	// transitively knows of. Own writes bump addr[dest][id] at send time;
	// settling or observing a parked obMatrix group merges its snapshot. Row
	// p is the wait condition shipped to destination p. Guarded by clockMu.
	addr Matrix
	// addrEpoch counts the rounds of remote matrix merges into addr. The outbox
	// compares it against each pending obMatrix batch's snapshot epoch: a
	// batch whose Deps predate a merge must flush before covering another
	// write, or the newer snapshot could name an update that itself waits
	// on a write parked in the batch (see outboxAddLocked). Guarded by
	// clockMu.
	addrEpoch uint64
	// sentPool supplies unbatched sent updates, each with room for its
	// obVector timestamp, and takes them back from their last holder; tsSlab
	// and mxSlab are the unused tails of the slabs the other timestamps and
	// obMatrix snapshots are carved from (issue.go). So a write allocates
	// nothing. Guarded by clockMu.
	sentPool updatePool
	tsSlab   slab.Of[uint64]
	mxSlab   matrixSlab

	// labels is the per-location lattice configuration (Config.Labels);
	// immutable after NewNode, nil when every location defaults to Causal.
	labels map[string]history.Label
	// SC central-owner protocol state: scWaiting holds the reply channels of
	// in-flight round trips keyed by request ID (guarded by scMu), scStore
	// holds the authoritative copies of the SC locations this node owns
	// (guarded by scMu; only the owner ever touches a location's entry), and
	// scSeq numbers outgoing requests.
	scMu      sync.Mutex
	scStore   map[string]int64
	scWaiting map[uint64]chan int64
	scSeq     atomic.Uint64

	// batch/outbox implement the per-destination update outbox, nil until
	// the node's first hold or, with Batch.Enabled, built by NewNode;
	// outboxBuilt says it is built, for flushAll, which reads outbox without
	// clockMu. outboxMu guards every destination's pending batch, the pools flushes
	// draw their single updates and their batches from, and the slab of
	// single-update stamps too wide to ride inline (outbox.go); flushes
	// counts the flushed frames by cause (Stats.Flushes); flushQuit stops the
	// linger flusher, which only Batch.Enabled starts. holds counts the open
	// holds (Hold) and heldReads the reads made in a row while one is open.
	batch        BatchConfig
	outboxMu     sync.Mutex
	outbox       []outboxDest
	outboxBuilt  atomic.Bool
	flushPool    updatePool
	flushBatches batchPool
	flushTS      slab.Of[uint64]
	flushes      [numFlushCauses]flushCount
	flushQuit    chan struct{}
	holds        atomic.Int32
	heldReads    atomic.Uint32
	closed       atomic.Bool
	done         chan struct{}
}

// NewNode creates the replica and starts its receive loop. Close the node
// before closing the fabric is not required: closing the fabric unblocks the
// loop, but Close must still be called to wait for it.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("dsm: nil transport")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N || cfg.N != cfg.Transport.Nodes() {
		return nil, fmt.Errorf("dsm: bad id/n %d/%d for %d-node transport",
			cfg.ID, cfg.N, cfg.Transport.Nodes())
	}
	if cfg.Scope != nil {
		if err := cfg.Scope.Validate(cfg.N, cfg.PRAMOnly); err != nil {
			return nil, err
		}
	}
	for loc, l := range cfg.Labels {
		switch l {
		case history.LabelSlow, history.LabelPRAM, history.LabelCausal, history.LabelSC:
		default:
			return nil, fmt.Errorf("dsm: location %q labeled %v: labels must name a lattice point", loc, l)
		}
		if l == history.LabelSC && cfg.Scope != nil {
			if _, scoped := cfg.Scope.Readers[loc]; scoped {
				return nil, fmt.Errorf("dsm: SC location %q cannot be scoped: it never broadcasts", loc)
			}
		}
	}
	node := &Node{
		id:            cfg.ID,
		pramOnly:      cfg.PRAMOnly,
		scopedCausal:  cfg.Scope != nil && !cfg.PRAMOnly,
		n:             cfg.N,
		fabric:        cfg.Transport,
		handle:        cfg.Handler,
		sent:          make([]uint64, cfg.N),
		recvd:         make([]uint64, cfg.N),
		causalApplied: make(avc, cfg.N),
		fence:         make(avc, cfg.N),
		pending:       make([]senderQueue, cfg.N),
		refs:          make([]refTable, cfg.N),
		obs:           cfg.Tracer,
		scWaiting:     make(map[uint64]chan int64),
		batch:         cfg.Batch.WithDefaults(),
		done:          make(chan struct{}),
	}
	for i := range node.shards {
		sh := &node.shards[i]
		sh.cond = sync.NewCond(&sh.mu)
	}
	node.clockCond = sync.NewCond(&node.clockMu)
	for j := 0; j < cfg.N; j++ {
		if j != cfg.ID {
			node.everyone.causal = append(node.everyone.causal, j)
		}
	}
	if cfg.Scope != nil {
		node.scopeTargets = cfg.Scope.compile(cfg.ID, cfg.N)
	}
	if node.scopedCausal {
		node.addr = NewMatrix(cfg.N)
	}
	if len(cfg.Labels) > 0 {
		node.labels = make(map[string]history.Label, len(cfg.Labels))
		for loc, l := range cfg.Labels {
			node.labels[loc] = l
		}
	}
	if cfg.Batch.Enabled {
		node.buildOutboxLocked()
		node.flushQuit = make(chan struct{})
		go node.lingerLoop()
	}
	go node.recvLoop()
	return node, nil
}

// ID returns the node's process identity.
func (n *Node) ID() int { return n.id }

// N returns the number of processes.
func (n *Node) N() int { return n.n }

// Tracer returns the node's event tracer (Config.Tracer), or nil when
// tracing is off. Synchronization clients and collectors share it so one
// ring per node carries the whole protocol timeline.
func (n *Node) Tracer() *obs.Tracer { return n.obs }

// labelOf returns the location's configured lattice point, LabelNone when the
// location is unlabeled (which every path treats as Causal, the default).
func (n *Node) labelOf(loc string) history.Label {
	if n.labels == nil {
		return history.LabelNone
	}
	return n.labels[loc]
}

// recvLoop dispatches fabric messages: updates into the memory views, SC
// traffic to the owner protocol, everything else to the protocol handler. The
// sender is the message's From, the channel it arrived on, whatever a payload
// says.
func (n *Node) recvLoop() {
	defer close(n.done)
	for {
		m, ok := n.fabric.Recv(n.id)
		if !ok {
			return
		}
		switch m.Kind {
		case KindUpdate:
			if u, ok := m.Payload.(*Update); ok {
				n.applyRemote(m.From, u)
			}
		case KindUpdateBatch:
			if b, ok := m.Payload.(*UpdateBatch); ok {
				n.applyBatch(m.From, b)
			}
		case KindSCRequest:
			if r, ok := m.Payload.(SCRequest); ok {
				n.handleSCRequest(m.From, r)
			}
		case KindSCReply:
			if r, ok := m.Payload.(SCReply); ok {
				n.handleSCReply(r)
			}
		default:
			if n.handle != nil {
				n.handle(m)
			}
		}
	}
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := Stats{
		Writes:   n.statWrites.Load(),
		SCReads:  n.statSCReads.Load(),
		SCWrites: n.statSCWrites.Load(),
		Awaits:   n.statAwaits.Load(),
		BlockedByCause: BlockedByCause{
			BlockedAwait:        time.Duration(n.statBlockedAwait.Load()),
			BlockedCausalWait:   time.Duration(n.statBlockedCausal.Load()),
			BlockedInvalidation: time.Duration(n.statBlockedInval.Load()),
			BlockedSC:           time.Duration(n.statBlockedSC.Load()),
		},
		MalformedUpdates: n.statMalformed.Load(),
		PendingGroups:    n.parked.Load(),
		PendingGroupsMax: n.parkedMax.Load(),
		Flushes: FlushesByCause{
			Threshold: n.flushes[flushThreshold].load(),
			Sync:      n.flushes[flushSync].load(),
			Linger:    n.flushes[flushLinger].load(),
			Epoch:     n.flushes[flushEpoch].load(),
		},
	}
	s.Blocked = s.BlockedAwait + s.BlockedCausalWait + s.BlockedSC + s.BlockedInvalidation
	for i := range n.shards {
		s.PRAMReads += n.shards[i].pramReads.Load()
		s.CausalReads += n.shards[i].causalReads.Load()
		s.SlowReads += n.shards[i].slowReads.Load()
	}
	return s
}

// Close unblocks all waiters and waits for the receive loop to exit. The
// fabric must be closed (or still delivering) for the loop to finish;
// closing the fabric first is the usual order. Pending outbox batches are
// flushed best-effort (a closed fabric drops them silently), and the linger
// flusher is stopped.
func (n *Node) Close() {
	n.clockMu.Lock()
	first := !n.closed.Load()
	if first {
		n.FlushUpdates()
	}
	n.closed.Store(true)
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	if first && n.flushQuit != nil {
		close(n.flushQuit)
	}
	<-n.done
}
