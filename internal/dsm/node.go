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
//     update (in vector-timestamp order) has been applied, so a read of this
//     view is a causal read ("can return a value only if all preceding
//     operations have been performed locally", Section 6).
//
// A write carries the writer's dependency clock: component j counts the
// updates from process j the writer had applied when it wrote. Because both
// PRAM and causal reads only ever return applied values, the clock bounds
// every reads-from dependency of the write, which is exactly the condition
// causal delivery needs.
//
// The node also exposes the counting primitives the synchronization layer
// builds on: cumulative per-destination sent counts (for the barrier
// message-count protocol), waits on received/causally-applied counts (for
// barrier and lazy lock propagation), and per-location invalidation (for
// demand-driven lock propagation). Counter objects with commutative add
// operations (the Cholesky optimization of Section 5.3) are updates of kind
// add.
//
// # Concurrency structure
//
// The replica's state is partitioned so the hot paths never share a lock
// (DESIGN.md §12):
//
//   - location values live in power-of-two-sharded insert-only hash tables
//     (internal/loctab) of cells; a cell holds both views' values and the
//     PRAM last-writer as atomics. Every operation hashes its location name
//     once: the low bits pick the shard, the rest the slot. Reads are
//     lock-free: a table probe and an atomic value load. Shard mutexes
//     serialize only structural inserts (one entry allocation; the table
//     doubles in place of copying), invalidation bookkeeping, and await
//     registration.
//   - protocol state — the matrix/vector clocks, sent/received counters,
//     the per-sender queues of parked causal delivery groups, and the write
//     log — lives under the clock lock (Node.clockMu). deps/causalApplied
//     are mutated only under it but stored as atomics so the read paths can
//     consult them without taking it.
//   - the outbox (all destinations) shares one lock (Node.outboxMu), so
//     the linger flusher never contends with the clock-guarded hot paths.
//   - the observation fence is a lock-free atomic vector raised by CAS-max.
//
// Lock order: clockMu -> shard.mu -> outboxMu (each level optional,
// never taken in reverse). The fence, stats, and closed flag are atomics
// with no lock. Fence soundness across the lock-free read path relies on
// store order: appliers store a cell's last-writer before its value, and
// readers load the value before the last-writer, so any value a read
// observes is covered by the fence entry the read raises.
package dsm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// KindUpdate is the fabric message kind used for memory updates.
const KindUpdate = "update"

// UpdateOp distinguishes plain writes from commutative counter operations.
type UpdateOp int

// Update operation kinds.
const (
	// OpSet is an ordinary write: the location takes the given value.
	OpSet UpdateOp = iota + 1
	// OpAdd is a commutative increment/decrement: the value is added to
	// the location's current contents. Adds from different processes
	// commute, which is what lets the counter-object Cholesky variant drop
	// its critical sections (Section 5.3).
	OpAdd
	// OpAddFloat adds float64 values through their bit patterns: the
	// location's contents and the update value are interpreted with
	// math.Float64frombits, summed, and stored back with Float64bits.
	// Floating-point addition commutes up to rounding, which is the
	// paper's counter-object view of the Cholesky column updates.
	OpAddFloat
)

// Update is the payload broadcast for every write or counter operation.
type Update struct {
	// From is the writing process.
	From int
	// Seq is the per-sender update sequence number, starting at 1.
	Seq uint64
	// Op selects set or add semantics.
	Op UpdateOp
	// Label tags the update with its location's lattice point
	// (Config.Labels). LabelSlow is semantic: it marks a timestamp-elided
	// update whose causal-view delivery waits only on the sender's own
	// per-location FIFO, never on cross-sender dependencies — the slow-memory
	// contract. Every other value (including LabelNone for unlabeled
	// locations) is informational: the receiver's handling is driven by the
	// causal metadata the update carries.
	Label history.Label
	// Loc is the memory location.
	Loc string
	// Value is the written value or the addend.
	Value int64
	// TS is the writer's dependency clock after this update: TS[j] is the
	// number of updates from process j the writer has applied, counting
	// this one for j == From. It is set only under full broadcast; scoped
	// causal updates carry PrevSeq and Deps instead, and timestamp-elided
	// updates (PRAMOnly mode, or PRAM-registered readers of a scoped
	// location) carry neither.
	TS vclock.VC
	// PrevSeq, on a causal-scoped update, is the sequence number of the
	// sender's previous causal update addressed to this destination (0 for
	// the first): the per-destination delivery chain that keeps one
	// sender's updates ordered even though the destination's view of the
	// sender's sequence numbers has holes.
	PrevSeq uint64
	// Deps, on a causal-scoped update, is the sender's address-matrix
	// snapshot: Deps[p][k] is the latest update from process k addressed
	// to process p that this update transitively depends on. The receiver
	// waits on its own row and merges the whole matrix; it never mutates
	// it (the snapshot is shared across the write's destinations).
	Deps vclock.Matrix
}

// encodedSize models the wire size of an update for the latency model,
// mirroring updateCodec's layout byte for byte: From, Seq, Op, the label
// tag, the length-prefixed location, Value, the length-prefixed timestamp,
// the u32 depsN prefix the codec always writes (even when zero), and — for
// scoped-causal updates — the chain pointer and the sparse matrix (whose
// size tracks the active peers, not the cluster dimension).
func (u Update) encodedSize() int {
	s := 4 + 8 + 1 + 1 + (4 + len(u.Loc)) + 8 + (4 + u.TS.EncodedSize()) + 4
	if u.Deps != nil {
		s += 8 + u.Deps.ActiveEncodedSize()
	}
	return s
}

// Handler receives non-update messages delivered to a node. Handlers run on
// the node's receive loop and must not block; hand work that can wait to a
// channel or goroutine.
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
	// Trace, when non-nil, records memory operations for the checker.
	// Programs recorded for checking must write distinct values per
	// location (the paper's convention).
	Trace *history.Builder
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
	// barrier count-vector protocol works unchanged because it counts
	// per-destination sends. See ScopeMap for the registration contract.
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
	// TrackAccess records every location this node reads and with which
	// labels, so a profiling run can learn a ScopeMap for the workload
	// (Accessed / core.System.LearnedScope).
	TrackAccess bool
	// Batch configures the per-destination update outbox. The zero value
	// keeps the original behavior: one message per write per destination.
	Batch BatchConfig
	// Tracer, when non-nil, records protocol events (write issue, outbox
	// enqueue/flush, receive, apply, delivery-group release, waits, SC round
	// trips) into the node's fixed-capacity ring for offline happens-before
	// reconstruction. Nil — the default — compiles every record site down to
	// a nil check; the hot paths stay allocation-free either way.
	Tracer *obs.Tracer
}

// Stats counts a node's memory activity.
type Stats struct {
	Writes      uint64
	PRAMReads   uint64
	CausalReads uint64
	SlowReads   uint64
	SCReads     uint64
	SCWrites    uint64
	Awaits      uint64
	// Blocked is the total time spent waiting in Await, WaitReceived,
	// WaitCausalApplied, SC round trips, and invalidation stalls. It is
	// split by cause into the four fields below, which sum to it exactly:
	// every wait site adds the same measured interval to its cause counter
	// and to the aggregate.
	Blocked time.Duration
	// BlockedAwait is the Await/AwaitAtLeast portion of Blocked.
	BlockedAwait time.Duration
	// BlockedCausalWait covers the causal-machinery waits: observation-fence
	// raises on causal reads, WaitReceived, and WaitCausalApplied.
	BlockedCausalWait time.Duration
	// BlockedSC is the time spent inside SC owner round trips.
	BlockedSC time.Duration
	// BlockedInvalidation is the time reads stalled on lock-protocol
	// invalidations awaiting their update.
	BlockedInvalidation time.Duration
	// MalformedUpdates counts received causal updates whose dependency
	// metadata did not match the system size — the matrix of a scoped-causal
	// update, the timestamp of a full-broadcast one — a misconfigured or
	// corrupt peer. Such updates reach the PRAM view only; they are counted
	// as causally settled so counting primitives cannot stall on them, and
	// this counter is the diagnostic that it happened.
	MalformedUpdates uint64
	// PendingGroups is the number of received delivery groups currently
	// parked behind an unmet causal dependency; PendingGroupsMax is its
	// high-water mark over the node's life. A backlog that only grows names
	// a sender whose updates are not arriving.
	PendingGroups    uint64
	PendingGroupsMax uint64
}

// Sharding constants: the low shardBits of a location's hash (loctab.Hash)
// pick one of a power-of-two number of shards, so distinct-location
// operations land on distinct shard state; the remaining bits pick the slot
// in the shard's table. The PRAM last-writer is packed into one atomic word
// as from<<seqBits | seq, which caps per-sender sequence numbers at 2^48 —
// unreachable in practice.
const (
	shardBits  = 5
	shardCount = 1 << shardBits
	shardMask  = shardCount - 1
	seqBits    = 48
	seqMask    = (1 << seqBits) - 1
)

// cell holds one location's state in both views. Values are atomics so the
// read paths never lock: appliers mutate them under the clock lock (or, for
// commutative adds, with atomic add/CAS), readers load them directly.
type cell struct {
	pram   atomic.Int64
	causal atomic.Int64
	// last packs the update most recently applied to the PRAM view
	// (from<<seqBits | seq; zero means never anchored). PRAM reads raise
	// the observation fence with it. Appliers store last before the value
	// and readers load the value before last, so the fence entry a read
	// raises always covers the value it observed.
	last atomic.Uint64
}

func packLast(from int, seq uint64) uint64 {
	return uint64(from)<<seqBits | seq&seqMask
}

// shard is one partition of the location space. The value table is
// insert-only: lookups probe it with no lock; an insert — once per new
// location — allocates the location's entry (the cell lives inside it, at an
// address that never changes) under the shard mutex. The mutex also guards
// the invalidation table and await registration; invalidLen mirrors
// len(invalid) so the read fast path can skip the table without locking.
type shard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32
	vals    loctab.Table[cell]

	invalid    map[string]invalidation
	invalidLen atomic.Int32

	pramReads   atomic.Uint64
	causalReads atomic.Uint64
	slowReads   atomic.Uint64
}

// lookup returns the location's cell, or nil if it was never written. h is
// the location's hash, the one that selected this shard.
func (sh *shard) lookup(h uint32, loc string) *cell {
	return sh.vals.Get(h>>shardBits, loc)
}

// cellFor returns the location's cell, inserting an empty one if needed. Safe
// under any lock level at or above shard.mu in the documented order.
func (sh *shard) cellFor(h uint32, loc string) *cell {
	if c := sh.lookup(h, loc); c != nil {
		return c
	}
	sh.mu.Lock()
	c, _ := sh.vals.Insert(h>>shardBits, loc, cell{})
	sh.mu.Unlock()
	return c
}

// wake broadcasts the shard condition if any await is registered. Appliers
// call it after storing a value; the registration protocol in awaitValue
// (waiters incremented before the value check, broadcast after the store)
// makes the missed-wakeup window empty.
func (sh *shard) wake() {
	if sh.waiters.Load() == 0 {
		return
	}
	sh.mu.Lock()
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// avc is a vector clock stored as atomics: mutated only under the clock
// lock, readable without it. raise is the exception — the observation fence
// is raised by reader threads with a CAS-max and never needs the lock.
type avc []atomic.Uint64

func newAVC(n int) avc { return make(avc, n) }

func (v avc) get(j int) uint64    { return v[j].Load() }
func (v avc) set(j int, x uint64) { v[j].Store(x) }
func (v avc) raise(j int, x uint64) {
	for {
		cur := v[j].Load()
		if cur >= x || v[j].CompareAndSwap(cur, x) {
			return
		}
	}
}

// clone materializes the vector as a plain VC (callers hold the clock lock
// when a consistent snapshot matters, e.g. timestamp stamping).
func (v avc) clone() vclock.VC {
	out := vclock.New(len(v))
	for j := range v {
		out[j] = v[j].Load()
	}
	return out
}

// merge raises each component to at least ts's (single mutator: the clock
// lock holder).
func (v avc) merge(ts vclock.VC) {
	for j := 0; j < len(v) && j < ts.Len(); j++ {
		if x := ts.Get(j); x > v[j].Load() {
			v[j].Store(x)
		}
	}
}

// Node is one process's replica of the shared memory.
type Node struct {
	id     int
	n      int
	fabric transport.Transport
	trace  *history.Builder
	handle Handler

	// shards partition the location space; see the package comment for the
	// locking structure.
	shards [shardCount]shard

	// clockMu guards the protocol state below it: the clocks and counters,
	// the parked causal delivery groups, the write log, and the scoped-causal
	// address matrix. clockCond is broadcast on every apply and write, and
	// waited on by the counting primitives, fence waits, and invalidation
	// stalls.
	clockMu   sync.Mutex
	clockCond *sync.Cond

	// deps[j] counts updates from j applied to the PRAM view (deps[id]
	// counts own writes). Writes are stamped with a copy of deps. Under
	// scoped placement deps[j] holds the last *sequence number* applied
	// from j, which skips the holes left by updates addressed elsewhere —
	// the PRAM view applies in receive order either way. Mutated under
	// clockMu, loadable lock-free.
	deps avc
	// causalApplied[j] is the last update from j applied to the causal
	// view: a count under full broadcast (where counts and sequence
	// numbers coincide), the last applied sequence number under scoped
	// placement (where this node's addressed stream has holes). Mutated
	// under clockMu, loadable lock-free.
	causalApplied avc
	// fence[j] is the observation fence: the per-sender sequence numbers
	// this process has *observed* through PRAM reads and PRAM awaits. A
	// PRAM read creates a reads-from edge in the causality relation, so by
	// Definition 2 every later causal read of this process must reflect
	// the observed update's causal context; ReadCausal therefore waits
	// until the causal view has applied at least fence[j] updates from
	// every j. Raised lock-free by CAS-max.
	fence avc
	// causalRecvd[j] counts updates from j whose view obligations are
	// fully met locally: causal updates once applied to the causal view,
	// timestamp-elided updates at PRAM apply (their registration contract
	// voids any causal obligation), own writes immediately. It feeds the
	// count-based WaitCausalApplied, which must not compare counts against
	// causalApplied once scoped sequence numbers have holes.
	causalRecvd []uint64
	// pending[j] queues, in arrival order, the delivery groups (single
	// updates or whole batches) received from j but not yet causally
	// applicable. Every label's delivery condition includes the sender's own
	// order, so only a queue's head can ever be deliverable. arrivals stamps
	// each parked group so a drain can visit heads in global arrival order.
	// parked counts the groups across all queues and parkedMax is its
	// high-water mark: mutated under clockMu, atomics so Stats reads them
	// without it.
	pending   []senderQueue
	arrivals  uint64
	parked    atomic.Uint64
	parkedMax atomic.Uint64
	// sent[j] counts updates sent to process j (cumulative), feeding the
	// barrier message-count protocol of Section 6.
	sent []uint64
	// recvd[j] counts updates from process j applied to the PRAM view. It
	// equals deps[j] under full broadcast but diverges under scoped
	// placement, where per-sender sequence numbers have holes; the
	// count-based waits (barriers, lazy locks) use recvd.
	recvd []uint64
	// writeLog records this node's own updates in order, so a lock client
	// can collect the write-set of a critical section for demand-driven
	// propagation. logBase is the absolute index of writeLog[0]: marks are
	// absolute positions, so the prefix no critical section still needs
	// can be trimmed without invalidating outstanding marks.
	//
	// Logging is lazy: logOn flips on at the first WriteMark call. A mark's
	// absolute position is the node's own-write count (deps[id]), so enabling
	// sets logBase to that count and positions stay continuous. Before the
	// first mark no WritesSince call can name an earlier position, and a node
	// that never uses locks never pays the log's append or memory cost —
	// unbounded growth on the write hot path, before this, dominated the
	// unbatched write profile via growslice.
	writeLog []WriteRecord
	logBase  int
	logOn    bool

	statWrites    atomic.Uint64
	statSCReads   atomic.Uint64
	statSCWrites  atomic.Uint64
	statAwaits    atomic.Uint64
	statMalformed atomic.Uint64
	statBlocked   atomic.Int64 // nanoseconds; equals the sum of the causes
	// Per-cause blocked time (nanoseconds). Every wait site adds the same
	// interval to exactly one cause and to statBlocked, so the causes
	// partition the aggregate.
	statBlockedAwait  atomic.Int64
	statBlockedCausal atomic.Int64
	statBlockedSC     atomic.Int64
	statBlockedInval  atomic.Int64

	// obs is the event tracer (Config.Tracer); nil means tracing is off and
	// every record site is a single predictable-branch nil check.
	obs *obs.Tracer

	pramOnly bool
	// scopeTargets holds the compiled per-location destination lists when
	// Config.Scope is set; scopeAll is the fallback for unregistered
	// locations (full broadcast). scopedCausal marks the scoped-causal
	// mode: a scope with a live causal view, where causal delivery runs on
	// the address matrix instead of vector timestamps.
	scopeTargets map[string]scopeEntry
	scopeAll     scopeEntry
	scopedCausal bool
	// addr is the address matrix (scoped-causal mode only): addr[p][k] is
	// the latest update from sender k addressed to process p that this
	// node transitively knows of. Own writes bump addr[dest][id] at send
	// time; causal applies merge the sender's shipped snapshot. Row p is
	// the wait condition shipped to destination p. Guarded by clockMu.
	addr vclock.Matrix
	// addrEpoch counts remote matrix merges absorbed into addr. The outbox
	// compares it against each pending causal batch's snapshot epoch: a
	// batch whose Deps predate a merge must flush before covering another
	// write, or the newer snapshot could name an update that itself waits
	// on a write parked in the batch (see outboxAdd). Guarded by clockMu.
	addrEpoch uint64
	// prevBuf is a per-write scratch buffer holding each causal
	// destination's chain predecessor (addr[j][id] before the bump), so a
	// write can bump the whole matrix before snapshotting it without
	// allocating. Guarded by clockMu.
	prevBuf []uint64

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

	// track is the access log when Config.TrackAccess is set; trackMu
	// guards it (the map reference itself is immutable after NewNode).
	trackMu sync.Mutex
	track   map[string]AccessKind

	// batch/outbox implement the per-destination update outbox; outboxMu
	// guards every destination's pending batch (one lock pair per write,
	// writers being clockMu-serialized anyway); flushQuit stops the linger
	// flusher.
	batch     BatchConfig
	outboxMu  sync.Mutex
	outbox    []*outboxDest
	flushQuit chan struct{}
	closed    atomic.Bool
	done      chan struct{}
}

type invalidation struct {
	from int
	seq  uint64
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
		n:             cfg.N,
		fabric:        cfg.Transport,
		trace:         cfg.Trace,
		handle:        cfg.Handler,
		deps:          newAVC(cfg.N),
		causalApplied: newAVC(cfg.N),
		fence:         newAVC(cfg.N),
		causalRecvd:   make([]uint64, cfg.N),
		pending:       make([]senderQueue, cfg.N),
		sent:          make([]uint64, cfg.N),
		recvd:         make([]uint64, cfg.N),
		obs:           cfg.Tracer,
		done:          make(chan struct{}),
	}
	for i := range node.shards {
		sh := &node.shards[i]
		sh.cond = sync.NewCond(&sh.mu)
	}
	node.clockCond = sync.NewCond(&node.clockMu)
	if cfg.Scope != nil {
		node.scopeTargets, node.scopeAll = cfg.Scope.compile(cfg.ID, cfg.N, cfg.PRAMOnly)
		node.scopedCausal = !cfg.PRAMOnly
		if node.scopedCausal {
			node.addr = vclock.NewMatrix(cfg.N)
			node.prevBuf = make([]uint64, cfg.N)
		}
	}
	if len(cfg.Labels) > 0 {
		node.labels = make(map[string]history.Label, len(cfg.Labels))
		for loc, l := range cfg.Labels {
			node.labels[loc] = l
		}
	}
	node.scWaiting = make(map[uint64]chan int64)
	if cfg.TrackAccess {
		node.track = make(map[string]AccessKind)
	}
	if cfg.Batch.Enabled {
		node.batch = cfg.Batch.WithDefaults()
		node.outbox = make([]*outboxDest, cfg.N)
		for j := range node.outbox {
			if j != node.id {
				node.outbox[j] = newOutboxDest(node.batch.MaxUpdates)
			}
		}
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

// Transport returns the underlying message substrate (for synchronization
// protocols).
func (n *Node) Transport() transport.Transport { return n.fabric }

// Tracer returns the node's event tracer (Config.Tracer), or nil when
// tracing is off. Synchronization clients and collectors share it so one
// ring per node carries the whole protocol timeline.
func (n *Node) Tracer() *obs.Tracer { return n.obs }

// Trace returns the history builder, or nil when not recording.
func (n *Node) Trace() *history.Builder { return n.trace }

// shard returns the shard a location hash (loctab.Hash) selects.
func (n *Node) shard(h uint32) *shard { return &n.shards[h&shardMask] }

// labelOf returns the location's configured lattice point, LabelNone when the
// location is unlabeled (which every path treats as Causal, the default).
func (n *Node) labelOf(loc string) history.Label {
	if n.labels == nil {
		return history.LabelNone
	}
	return n.labels[loc]
}

func (n *Node) trackAccess(loc string, kind AccessKind) {
	n.trackMu.Lock()
	n.track[loc] |= kind
	n.trackMu.Unlock()
}

// recvLoop dispatches fabric messages: updates into the memory views,
// everything else to the protocol handler.
func (n *Node) recvLoop() {
	defer close(n.done)
	for {
		m, ok := n.fabric.Recv(n.id)
		if !ok {
			return
		}
		if m.Kind == KindUpdate {
			u, ok := m.Payload.(Update)
			if !ok {
				continue
			}
			n.applyRemote(u)
			continue
		}
		if m.Kind == KindUpdateBatch {
			b, ok := m.Payload.(UpdateBatch)
			if !ok {
				continue
			}
			n.applyBatch(b)
			continue
		}
		if m.Kind == KindSCRequest {
			if r, ok := m.Payload.(SCRequest); ok {
				n.handleSCRequest(r)
			}
			continue
		}
		if m.Kind == KindSCReply {
			if r, ok := m.Payload.(SCReply); ok {
				n.handleSCReply(r)
			}
			continue
		}
		if n.handle != nil {
			n.handle(m)
		}
	}
}

// applyCell applies one update operation to a view's atomic value. OpSet
// stores; the commutative ops use atomic add / CAS so concurrent appliers
// (a local writer and the receive loop) never lose an increment.
func applyCell(v *atomic.Int64, op UpdateOp, value int64) {
	switch op {
	case OpAdd:
		v.Add(value)
	case OpAddFloat:
		for {
			old := v.Load()
			sum := math.Float64frombits(uint64(old)) +
				math.Float64frombits(uint64(value))
			if v.CompareAndSwap(old, int64(math.Float64bits(sum))) {
				return
			}
		}
	default:
		v.Store(value)
	}
}

// applyRemote applies a received update: immediately to the PRAM view, and
// to the causal view once its dependencies are satisfied — in place when they
// already are, which is the common case and touches no queue. Under scoped
// placement a timestamp-elided update (no Deps) is addressed to a
// PRAM-registered reader: it carries no causal obligations, so it never
// enters the causal view and never raises the observation fence.
func (n *Node) applyRemote(u Update) {
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvRecv, uint8(u.Label), uint16(u.From), u.Loc, u.Seq, 0, 0)
	}
	h := loctab.Hash(u.Loc)
	sh := n.shard(h)
	c := sh.cellFor(h, u.Loc)
	n.clockMu.Lock()
	// PRAM view: apply in receive order. The last-writer anchor (for the
	// observation fence) is stored before the value; it is skipped in
	// PRAMOnly mode (no causal read ever waits on the fence there) and for
	// elided, slow, or malformed updates (no fence may wait on them).
	switch {
	case n.pramOnly:
		applyCell(&c.pram, u.Op, u.Value)
	case n.scopedCausal && u.Deps == nil:
		// Elided fast path: PRAM view only; the registration contract says
		// no causal read of this process depends on it.
		applyCell(&c.pram, u.Op, u.Value)
		n.causalRecvd[u.From]++
	case n.malformedLocked(u.Label, u.TS, u.Deps):
		// Dependency metadata of the wrong dimension: a misconfigured or
		// corrupt peer. The update stays out of the causal view (and raises
		// no fence anchor), but it must not silently stall the counting
		// primitives — count it as causally settled, like the elided path,
		// and record the fault.
		applyCell(&c.pram, u.Op, u.Value)
		n.causalRecvd[u.From]++
		n.statMalformed.Add(1)
	default:
		// Causal view: a singleton delivery group. A slow update is
		// timestamp-elided and delivered on the sender's own FIFO alone
		// (groupDeliverableLocked's slow case); it stores no fence anchor —
		// slow reads never raise the observation fence, and the label
		// contract says no causal read depends on what a slow location's
		// reads observed.
		g := deliveryGroup{from: u.From, firstSeq: u.Seq, lastSeq: u.Seq, count: 1}
		switch {
		case n.scopedCausal:
			g.prevSeq, g.deps = u.PrevSeq, u.Deps
		case u.Label == history.LabelSlow:
			g.slow = true
		default:
			g.ts = u.TS
		}
		if !g.slow {
			c.last.Store(packLast(u.From, u.Seq))
		}
		applyCell(&c.pram, u.Op, u.Value)
		if n.deliverableOnArrivalLocked(&g) {
			applyCell(&c.causal, u.Op, u.Value)
			n.settleArrivedLocked(&g)
		} else {
			g.op, g.value, g.cell, g.sh = u.Op, u.Value, c, sh
			n.parkLocked(&g)
		}
	}
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvApply, uint8(u.Label), uint16(u.From), u.Loc, u.Seq, 0, 0)
	}
	n.deps.set(u.From, u.Seq)
	n.recvd[u.From]++
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
	sh.wake()
}

// malformedLocked reports whether a received causal update (or a batch's
// latest entry) carries dependency metadata of the wrong dimension: the
// address matrix under scoped-causal placement, the vector timestamp under
// full broadcast (slow updates carry none). Such an update can never meet a
// delivery condition, so it is diverted at receive instead of parking
// forever. PRAMOnly nodes and elided scoped updates never get here.
func (n *Node) malformedLocked(label history.Label, ts vclock.VC, deps vclock.Matrix) bool {
	if n.scopedCausal {
		return deps.Len() != n.n
	}
	return label != history.LabelSlow && ts.Len() != n.n
}

// applyBatch applies a received update batch under one clock-lock hold:
// every entry goes into the PRAM view in one critical section (receive-side
// amortization of lock traffic), the PRAM clock advances to the latest
// covered sequence number, and the received count advances by the batch's
// full Count — including coalesced-away updates — so the barrier and
// lazy-lock counting protocols account every original write. The causal view
// receives the batch as one delivery group: in the same pass over the
// entries when the group is deliverable on arrival, otherwise when a later
// drain releases it. Batches that are not parked return their entry slice to
// the batch pool here; parked groups return it when the group applies
// (settleGroupLocked).
func (n *Node) applyBatch(b UpdateBatch) {
	if len(b.Updates) == 0 {
		return
	}
	// The entry with the highest Seq is the sender's latest covered write;
	// its timestamp dominates the batch. It can sit anywhere (coalescing
	// replaces in place), so finding it is a scan.
	latest := &b.Updates[0]
	for i := 1; i < len(b.Updates); i++ {
		if b.Updates[i].Seq > latest.Seq {
			latest = &b.Updates[i]
		}
	}
	if n.obs != nil {
		n.obs.Record(obs.EvRecvBatch, uint8(b.Updates[0].Label), uint16(b.From),
			obs.NoLoc, b.FirstSeq, latest.Seq, b.Count)
	}
	n.clockMu.Lock()
	g := deliveryGroup{
		from: b.From, firstSeq: b.FirstSeq, lastSeq: latest.Seq,
		count: b.Count, batch: b.Updates,
	}
	// causal says the batch enters the causal view. Scoped batches are
	// kind-segregated at the sender: a batch with no dependency matrix is
	// entirely timestamp-elided and stays out of it, exactly like a
	// singleton elided update. A batch whose metadata has the wrong
	// dimension (misconfigured or corrupt peer) is handled like the elided
	// case — PRAM view only, no fence anchor, but counted as causally
	// settled so no counting primitive stalls on it — with the fault
	// recorded in Stats. Slow batches are label-homogeneous at the sender
	// (the outbox flushes on a label-class change), timestamp-elided, and
	// deliver to the causal view on the sender's FIFO alone; like singleton
	// slow updates they never anchor the observation fence.
	causal := false
	switch {
	case n.pramOnly:
	case n.scopedCausal && b.Deps == nil:
		n.causalRecvd[b.From] += b.Count
	case n.malformedLocked(b.Updates[0].Label, latest.TS, b.Deps):
		n.causalRecvd[b.From] += b.Count
		n.statMalformed.Add(b.Count)
	case n.scopedCausal:
		causal = true
		g.prevSeq, g.deps = b.PrevSeq, b.Deps
	case b.Updates[0].Label == history.LabelSlow:
		causal = true
		g.slow = true
	default:
		causal = true
		g.ts = latest.TS
	}
	anchor := causal && !g.slow
	inPlace := causal && n.deliverableOnArrivalLocked(&g)
	for i := range b.Updates {
		u := &b.Updates[i]
		h := loctab.Hash(u.Loc)
		sh := n.shard(h)
		c := sh.cellFor(h, u.Loc)
		if anchor {
			c.last.Store(packLast(b.From, u.Seq))
		}
		applyCell(&c.pram, u.Op, u.Value)
		if inPlace {
			applyCell(&c.causal, u.Op, u.Value)
		}
		sh.wake()
		if n.obs != nil {
			n.obs.RecordLoc(obs.EvApply, uint8(u.Label), uint16(b.From), u.Loc, u.Seq, 0, 0)
		}
	}
	n.deps.set(b.From, g.lastSeq)
	n.recvd[b.From] += b.Count
	switch {
	case inPlace:
		n.settleArrivedLocked(&g)
	case causal:
		n.parkLocked(&g)
	default:
		putUpdateSlice(b.Updates)
	}
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
}

// deliverableOnArrivalLocked reports whether a just-received group can apply
// to the causal view without queueing: nothing from its sender is parked
// ahead of it and its delivery condition already holds.
func (n *Node) deliverableOnArrivalLocked(g *deliveryGroup) bool {
	return n.pending[g.from].size == 0 && n.groupDeliverableLocked(g)
}

// settleArrivedLocked finishes a group that applied on arrival and, if
// anything is parked, releases what the advance unblocked.
func (n *Node) settleArrivedLocked(g *deliveryGroup) {
	n.settleGroupLocked(g)
	if n.parked.Load() != 0 {
		n.drainCausalLocked()
	}
}

// parkLocked queues a received group whose delivery condition does not hold
// yet behind its sender's earlier parked groups. Nothing else can have become
// deliverable — the clocks did not move — so no drain follows.
func (n *Node) parkLocked(g *deliveryGroup) {
	n.arrivals++
	g.arrival = n.arrivals
	if n.obs != nil {
		g.parkedAt = time.Now().UnixNano()
		n.obs.Record(obs.EvDepWaitBegin, 0, uint16(g.from), obs.NoLoc, g.firstSeq, 0, 0)
	}
	n.pending[g.from].push(g)
	if p := n.parked.Add(1); p > n.parkedMax.Load() {
		n.parkedMax.Store(p)
	}
}

// settleGroupLocked records that a group's values are in the causal view: it
// advances the causal clock and the settled count, returns a batch's entry
// slice to the pool, and emits the release trace events. The clock advance
// comes after all the group's values are stored, so a lock-free causal read
// that sees the advanced clock sees the values.
func (n *Node) settleGroupLocked(g *deliveryGroup) {
	switch {
	case g.slow:
		// Slow group: the sender's FIFO position advances; the group carries
		// no cross-sender knowledge to absorb.
		n.causalApplied.set(g.from, g.lastSeq)
	case g.deps != nil:
		// Scoped-causal: advance the sender's chain to the group's last
		// addressed sequence number and absorb the shipped dependency
		// knowledge. The epoch bump tells the outbox that pending causal
		// batches now predate part of the matrix.
		n.causalApplied.set(g.from, g.lastSeq)
		n.addr.Merge(g.deps)
		n.addrEpoch++
	default:
		n.causalApplied.merge(g.ts)
	}
	n.causalRecvd[g.from] += g.count
	if g.batch != nil {
		putUpdateSlice(g.batch)
	}
	if n.obs != nil {
		if g.parkedAt != 0 {
			parked := time.Now().UnixNano() - g.parkedAt
			n.obs.Record(obs.EvDepWaitEnd, 0, uint16(g.from), obs.NoLoc,
				g.firstSeq, uint64(parked), 0)
		}
		n.obs.Record(obs.EvGroupRelease, 0, uint16(g.from), obs.NoLoc,
			g.firstSeq, g.lastSeq, g.count)
	}
}

// drainCausalLocked releases parked delivery groups to the causal view in
// causal order until none is deliverable. It looks only at queue heads — a
// group behind its sender's head cannot be deliverable — and visits them the
// way a scan of one arrival-ordered list would: repeated passes, each taking
// the live heads in arrival order and dropping a sender from the pass once
// its head is found blocked. Release order is therefore a function of the
// arrival order alone, not of how the groups are stored. A pass that releases
// nothing ends the drain, so a call with nothing deliverable costs one
// condition check per sender.
func (n *Node) drainCausalLocked() {
	for progressed := true; progressed; {
		progressed = false
		for j := range n.pending {
			n.pending[j].blocked = n.pending[j].size == 0
		}
		for {
			var q *senderQueue
			for j := range n.pending {
				if c := &n.pending[j]; !c.blocked &&
					(q == nil || c.front().arrival < q.front().arrival) {
					q = c
				}
			}
			if q == nil {
				break
			}
			g := q.front()
			if !n.groupDeliverableLocked(g) {
				q.blocked = true
				continue
			}
			n.applyGroupLocked(g)
			n.settleGroupLocked(g)
			q.pop()
			n.parked.Add(^uint64(0))
			q.blocked = q.size == 0
			progressed = true
		}
	}
}

// applyGroupLocked stores a parked group's values into the causal view. A
// singleton carries the cell its PRAM apply resolved; batch entries look
// theirs up again (the PRAM apply inserted them, so this never inserts).
func (n *Node) applyGroupLocked(g *deliveryGroup) {
	if g.batch == nil {
		applyCell(&g.cell.causal, g.op, g.value)
		g.sh.wake()
		return
	}
	for i := range g.batch {
		u := &g.batch[i]
		h := loctab.Hash(u.Loc)
		sh := n.shard(h)
		applyCell(&sh.cellFor(h, u.Loc).causal, u.Op, u.Value)
		sh.wake()
	}
}

// Write stores value at loc. For broadcast labels (everything but SC) it is
// non-blocking: the response is local and the update propagates
// asynchronously, as the paper's interface permits (Section 3). A write to an
// SC-labeled location is a blocking round trip to the location's owner.
func (n *Node) Write(loc string, value int64) {
	if n.labelOf(loc) == history.LabelSC {
		n.scApply(OpSet, loc, value)
	} else {
		n.broadcastUpdate(OpSet, loc, value)
	}
	if n.trace != nil {
		n.trace.AppendOp(history.Op{
			Proc: n.id, Kind: history.Write, Loc: loc, Value: value,
		})
	}
}

// Add applies a commutative increment (negative for decrement) to a counter
// object (Section 5.3). Counter operations are not recorded in traces: they
// are operations of an abstract data type, not reads/writes.
func (n *Node) Add(loc string, delta int64) {
	if n.labelOf(loc) == history.LabelSC {
		n.scApply(OpAdd, loc, delta)
		return
	}
	n.broadcastUpdate(OpAdd, loc, delta)
}

// AddFloat applies a commutative float64 increment to a location holding a
// Float64bits-encoded value: the counter-object view of the Cholesky column
// updates (Section 5.3).
func (n *Node) AddFloat(loc string, delta float64) {
	if n.labelOf(loc) == history.LabelSC {
		n.scApply(OpAddFloat, loc, int64(math.Float64bits(delta)))
		return
	}
	n.broadcastUpdate(OpAddFloat, loc, int64(math.Float64bits(delta)))
}

func (n *Node) broadcastUpdate(op UpdateOp, loc string, value int64) {
	label := n.labelOf(loc)
	// A slow update is timestamp-elided and never fence-anchored: the label
	// contract (Config.Labels) drops every cross-location obligation.
	slow := label == history.LabelSlow && !n.pramOnly
	h := loctab.Hash(loc)
	sh := n.shard(h)
	c := sh.cellFor(h, loc)
	n.clockMu.Lock()
	seq := n.deps.get(n.id) + 1
	n.deps.set(n.id, seq)
	u := Update{
		From:  n.id,
		Seq:   seq,
		Op:    op,
		Label: label,
		Loc:   loc,
		Value: value,
	}
	if !n.pramOnly && !slow {
		c.last.Store(packLast(n.id, seq))
	}
	applyCell(&c.pram, op, value)
	n.recvd[n.id]++
	if !n.pramOnly {
		applyCell(&c.causal, op, value)
		n.causalApplied.set(n.id, seq)
		n.causalRecvd[n.id]++
	}
	if n.logOn {
		n.writeLog = append(n.writeLog, WriteRecord{Loc: loc, Seq: seq})
	}
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvWriteIssue, uint8(label), 0, loc, seq, uint64(n.n-1), uint64(op))
	}
	// Send while holding the clock lock so per-sender sequence numbers hit
	// the fabric in order even under concurrent writers; fabric sends never
	// block. With the outbox enabled, "send" means enqueue into the
	// destination's pending batch, flushing any batch that crossed a
	// threshold.
	switch {
	case n.scopeTargets != nil:
		n.sendScopedLocked(u)
	case n.batch.Enabled:
		if !n.pramOnly && !slow {
			u.TS = n.deps.clone()
		}
		n.outboxMu.Lock()
		for j := 0; j < n.n; j++ {
			if j == n.id {
				continue
			}
			n.sent[j]++
			n.outboxAddLocked(j, u, false, nil)
		}
		n.outboxMu.Unlock()
	default:
		if !n.pramOnly && !slow {
			u.TS = n.deps.clone()
		}
		for j := 0; j < n.n; j++ {
			if j != n.id {
				n.sent[j]++
			}
		}
		_ = n.fabric.Broadcast(n.id, KindUpdate, u, u.encodedSize())
		if n.obs != nil {
			// Unbatched sends leave the node here: one flush per peer with a
			// single-seq range, so the chain works without an outbox.
			for j := 0; j < n.n; j++ {
				if j != n.id {
					n.obs.Record(obs.EvFlush, uint8(label), uint16(j), obs.NoLoc, seq, seq, 1)
				}
			}
		}
	}
	n.statWrites.Add(1)
	n.clockCond.Broadcast()
	n.clockMu.Unlock()
	sh.wake()
}

// sendScopedLocked routes one write under the scope map: timestamp-elided
// copies to the location's PRAM-registered readers, dependency-stamped
// copies to its causal-registered readers, and (for locations the map does
// not name) a copy to every peer. Causal copies carry the per-destination
// chain pointer and a snapshot of the address matrix taken after this
// write's bumps, so a destination that relays the value onward ships a
// matrix that already covers this update at every other destination. The
// snapshot is taken here, under the same clock-lock hold as the bumps, for
// both the immediate sends and the outbox path: a batch must ship
// dependencies its covered writes were written under, never ones absorbed
// later.
func (n *Node) sendScopedLocked(u Update) {
	ent, ok := n.scopeTargets[u.Loc]
	if !ok {
		ent = n.scopeAll
	}
	if n.batch.Enabled {
		n.outboxMu.Lock()
		for _, j := range ent.elided {
			n.sent[j]++
			n.outboxAddLocked(j, u, false, nil)
		}
		n.outboxMu.Unlock()
	} else {
		for _, j := range ent.elided {
			n.sent[j]++
			_ = n.fabric.Send(network.Message{
				From: n.id, To: j, Kind: KindUpdate,
				Payload: u, Size: u.encodedSize(),
			})
			if n.obs != nil {
				n.obs.Record(obs.EvFlush, uint8(u.Label), uint16(j), obs.NoLoc, u.Seq, u.Seq, 1)
			}
		}
	}
	if len(ent.causal) == 0 {
		return
	}
	// Bump the matrix for every causal destination before any copy (or
	// flushed batch) snapshots it: transitive soundness needs each shipped
	// matrix to record this update at all of its destinations.
	for _, j := range ent.causal {
		n.prevBuf[j] = n.addr.Get(j, n.id)
		n.addr.Set(j, n.id, u.Seq)
	}
	snap := n.addr.Clone() // shared across destinations; receivers only merge from it
	if n.batch.Enabled {
		n.outboxMu.Lock()
		for _, j := range ent.causal {
			n.sent[j]++
			n.outboxAddLocked(j, u, true, snap)
		}
		n.outboxMu.Unlock()
		return
	}
	for _, j := range ent.causal {
		n.sent[j]++
		cu := u
		cu.PrevSeq = n.prevBuf[j]
		cu.Deps = snap
		_ = n.fabric.Send(network.Message{
			From: n.id, To: j, Kind: KindUpdate,
			Payload: cu, Size: cu.encodedSize(),
		})
		if n.obs != nil {
			n.obs.Record(obs.EvFlush, uint8(u.Label), uint16(j), obs.NoLoc, u.Seq, u.Seq, 1)
		}
	}
}

// Read performs the read the location's configured lattice point calls for:
// a slow read for LabelSlow, a PRAM read for LabelPRAM, an owner round trip
// for LabelSC, and a causal read for LabelCausal and unlabeled locations.
// Programs written against Read move along the lattice by reconfiguring
// Config.Labels alone.
func (n *Node) Read(loc string) int64 {
	switch n.labelOf(loc) {
	case history.LabelSlow:
		return n.ReadSlow(loc)
	case history.LabelPRAM:
		return n.ReadPRAM(loc)
	case history.LabelSC:
		return n.ReadSC(loc)
	default:
		return n.ReadCausal(loc)
	}
}

// ReadSlow returns loc's most recent locally applied value without raising
// the observation fence: the slow-memory read (Hutto & Ahamad's slow memory,
// the bottom of the label lattice). It guarantees only that one writer's
// writes to this location are observed in order — the transport's FIFO
// channels and receive-order application give exactly that — and imposes no
// obligation on any later read of any other location.
func (n *Node) ReadSlow(loc string) int64 {
	v := n.readSlowValue(loc)
	if n.trace != nil {
		n.trace.AppendOp(history.Op{
			Proc: n.id, Kind: history.Read, Loc: loc, Value: v, Label: history.LabelSlow,
		})
	}
	return v
}

// readSlowValue is ReadSlow without trace recording: the lock-free local
// lookup alone. Unlike readPRAMValue it never loads the cell's last-writer
// anchor — a slow read creates no observation-fence entry, so it can never
// make a later causal read wait.
func (n *Node) readSlowValue(loc string) int64 {
	h := loctab.Hash(loc)
	sh := n.shard(h)
	if n.track != nil {
		n.trackAccess(loc, AccessPRAM)
	}
	if sh.invalidLen.Load() != 0 {
		n.waitValid(sh, loc, false)
	}
	var v int64
	if c := sh.lookup(h, loc); c != nil {
		v = c.pram.Load()
	}
	sh.slowReads.Add(1)
	return v
}

// ReadPRAM returns loc's value in the PRAM view: the most recent locally
// applied value (Definition 3 at the implementation level). It blocks only
// if the location is invalidated by demand-driven propagation.
func (n *Node) ReadPRAM(loc string) int64 {
	v := n.readPRAMValue(loc)
	if n.trace != nil {
		n.trace.AppendOp(history.Op{
			Proc: n.id, Kind: history.Read, Loc: loc, Value: v, Label: history.LabelPRAM,
		})
	}
	return v
}

// readPRAMValue is ReadPRAM without trace recording, shared with thread
// handles. The fast path is lock-free: one hash of the name, one table probe,
// and atomic value/last-writer loads. The value is loaded before
// the last-writer anchor (appliers store them in the opposite order), so
// the fence entry raised always covers the observed value.
func (n *Node) readPRAMValue(loc string) int64 {
	h := loctab.Hash(loc)
	sh := n.shard(h)
	if n.track != nil {
		n.trackAccess(loc, AccessPRAM)
	}
	if sh.invalidLen.Load() != 0 {
		n.waitValid(sh, loc, false)
	}
	var v int64
	if c := sh.lookup(h, loc); c != nil {
		v = c.pram.Load()
		if !n.pramOnly {
			if packed := c.last.Load(); packed != 0 {
				n.fence.raise(int(packed>>seqBits), packed&seqMask)
			}
		}
	}
	sh.pramReads.Add(1)
	return v
}

// ReadCausal returns loc's value in the causal view: the most recent value
// all of whose causal predecessors have been applied locally (Definition 2
// at the implementation level). It blocks if the location is invalidated by
// demand-driven propagation, or until the causal view covers the process's
// observation fence — everything earlier PRAM reads and PRAM awaits of this
// process observed, whose reads-from edges Definition 2 counts as causal
// context.
func (n *Node) ReadCausal(loc string) int64 {
	v := n.readCausalValue(loc)
	if n.trace != nil {
		label := history.LabelCausal
		if n.pramOnly {
			label = history.LabelPRAM
		}
		n.trace.AppendOp(history.Op{
			Proc: n.id, Kind: history.Read, Loc: loc, Value: v, Label: label,
		})
	}
	return v
}

// readCausalValue is ReadCausal without trace recording, shared with thread
// handles. Lock-free when the fence is already covered: causalApplied only
// advances after a group's values are stored, so a fence check that passes
// on atomic loads guarantees the covered values are visible.
func (n *Node) readCausalValue(loc string) int64 {
	if n.pramOnly {
		// Degraded mode: only sound for PRAM-consistent programs.
		return n.readPRAMValue(loc)
	}
	h := loctab.Hash(loc)
	sh := n.shard(h)
	if n.track != nil {
		n.trackAccess(loc, AccessCausal)
	}
	if sh.invalidLen.Load() != 0 {
		n.waitValid(sh, loc, true)
	}
	if !n.fenceCovered() {
		n.waitFence(loc)
	}
	var v int64
	if c := sh.lookup(h, loc); c != nil {
		v = c.causal.Load()
	}
	sh.causalReads.Add(1)
	return v
}

// fenceCovered reports whether the causal view has applied every update the
// observation fence covers. Lock-free: both vectors are atomics, and both
// only grow, so a stale load can only send the caller to the locked slow
// path, never let it pass early.
func (n *Node) fenceCovered() bool {
	for j := 0; j < n.n; j++ {
		if n.causalApplied.get(j) < n.fence.get(j) {
			return false
		}
	}
	return true
}

// waitFence blocks until the causal view has applied every update the
// observation fence covers. loc is the causal read that tripped it, for
// the trace alone.
func (n *Node) waitFence(loc string) {
	start := time.Now()
	n.clockMu.Lock()
	for !n.closed.Load() && !n.fenceCovered() {
		n.clockCond.Wait()
	}
	n.clockMu.Unlock()
	d := int64(time.Since(start))
	n.statBlocked.Add(d)
	n.statBlockedCausal.Add(d)
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvFenceWait, 0, 0, loc, 0, uint64(d), 0)
	}
}

// waitValid blocks while loc is invalidated and the required update has not
// yet reached the relevant view. The caller's shard fast path already saw a
// nonzero invalidation count; the wait itself runs on the clock condition,
// which every apply broadcasts.
func (n *Node) waitValid(sh *shard, loc string, causalView bool) {
	sh.mu.Lock()
	inv, ok := sh.invalid[loc]
	sh.mu.Unlock()
	if !ok {
		return
	}
	start := time.Now()
	n.clockMu.Lock()
	for !n.closed.Load() {
		var applied uint64
		if causalView {
			applied = n.causalApplied.get(inv.from)
		} else {
			applied = n.deps.get(inv.from)
		}
		if applied >= inv.seq {
			break
		}
		n.clockCond.Wait()
	}
	n.clockMu.Unlock()
	sh.mu.Lock()
	delete(sh.invalid, loc)
	sh.invalidLen.Store(int32(len(sh.invalid)))
	sh.mu.Unlock()
	d := int64(time.Since(start))
	n.statBlocked.Add(d)
	n.statBlockedInval.Add(d)
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvInvalWait, 0, uint16(inv.from), loc, inv.seq, uint64(d), 0)
	}
}

// AwaitPRAM blocks until loc holds value in the PRAM view — the busy-wait
// loop of PRAM reads the paper describes (Section 6), realized with a
// condition variable instead of spinning. Reads that follow it see the
// matched write and its sender's FIFO prefix, but not transitive
// dependencies through third processes; programs that read with causal
// labels after an await should use AwaitCausal.
func (n *Node) AwaitPRAM(loc string, value int64) {
	n.await(loc, value, false)
}

// AwaitCausal blocks until loc holds value in the causal view — a busy-wait
// loop of causal reads. Because the causal view only applies an update after
// all its causal predecessors, every update the matched write depends on
// (transitively, through any chain of processes) is locally applied when
// AwaitCausal returns; causal reads that follow it satisfy Definition 2.
func (n *Node) AwaitCausal(loc string, value int64) {
	n.await(loc, value, true)
}

func (n *Node) await(loc string, value int64, causalView bool) {
	n.awaitValue(loc, value, causalView)
	if n.trace != nil {
		n.trace.AppendOp(history.Op{
			Proc: n.id, Kind: history.Await, Loc: loc, Value: value,
		})
	}
}

// awaitValue is the await wait loop without trace recording, shared with
// thread handles. The waiter registers on the location's shard (waiters
// incremented under the shard lock before the first value check); appliers
// store the value and then broadcast if any waiter is registered, so the
// waiter either sees the value or is woken.
func (n *Node) awaitValue(loc string, value int64, causalView bool) {
	wantCausal := causalView
	if n.pramOnly {
		causalView = false
	}
	if n.track != nil {
		if wantCausal {
			n.trackAccess(loc, AccessCausal)
		} else {
			n.trackAccess(loc, AccessPRAM)
		}
	}
	// Await registration is a synchronization boundary: a process about
	// to block on a peer's flag must not keep its own half of the
	// handshake parked in the outbox.
	n.FlushUpdates()
	h := loctab.Hash(loc)
	sh := n.shard(h)
	start := time.Now()
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvAwaitBegin, 0, 0, loc, 0, uint64(value), 0)
	}
	sh.mu.Lock()
	sh.waiters.Add(1)
	for !n.closed.Load() {
		var v int64
		if c := sh.lookup(h, loc); c != nil {
			if causalView {
				v = c.causal.Load()
			} else {
				v = c.pram.Load()
			}
		}
		if v == value {
			break
		}
		sh.cond.Wait()
	}
	sh.waiters.Add(-1)
	sh.mu.Unlock()
	if !causalView && !n.pramOnly {
		// The matched write is a synchronization edge incident on this
		// process; later causal reads must observe its causal context.
		if c := sh.lookup(h, loc); c != nil {
			if packed := c.last.Load(); packed != 0 {
				n.fence.raise(int(packed>>seqBits), packed&seqMask)
			}
		}
	}
	n.statAwaits.Add(1)
	d := int64(time.Since(start))
	n.statBlocked.Add(d)
	n.statBlockedAwait.Add(d)
	if n.obs != nil {
		// Anchor the wakeup to the matched write (the PRAM last-writer): the
		// explainer chains from it back to the writer's issue event. Zero
		// means the location was never anchored (slow/elided writes); the
		// explainer skips those.
		var packed uint64
		if c := sh.lookup(h, loc); c != nil {
			packed = c.last.Load()
		}
		n.obs.RecordLoc(obs.EvAwaitEnd, uint8(n.labelOf(loc)), uint16(packed>>seqBits),
			loc, packed&seqMask, uint64(d), 0)
	}
}

// SentCounts returns a copy of the cumulative per-destination update counts,
// the vector each process reports to the barrier manager (Section 6). With
// the outbox enabled it first flushes every pending batch: the counts are a
// promise that peers can wait for that many updates, so nothing counted may
// remain parked locally.
func (n *Node) SentCounts() []uint64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.flushAllLocked()
	out := make([]uint64, n.n)
	copy(out, n.sent)
	return out
}

// ReceivedCounts returns, per sender, the cumulative number of updates
// applied to the PRAM view (own writes for the node's own component).
func (n *Node) ReceivedCounts() []uint64 {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	out := make([]uint64, n.n)
	copy(out, n.recvd)
	return out
}

// WaitReceived blocks until at least min[j] updates from each process j have
// been applied to the PRAM view. The barrier protocol uses it to ensure all
// prior-phase updates are in place before the phase's reads (Section 6).
func (n *Node) WaitReceived(min []uint64) {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.flushAllLocked()
	start := time.Now()
	for !n.countsReachedLocked(min) && !n.closed.Load() {
		n.clockCond.Wait()
	}
	d := int64(time.Since(start))
	n.statBlocked.Add(d)
	n.statBlockedCausal.Add(d)
	if n.obs != nil {
		n.obs.Record(obs.EvWaitCounts, 0, 0, obs.NoLoc, 0, uint64(d), 0)
	}
}

func (n *Node) countsReachedLocked(min []uint64) bool {
	for j := 0; j < n.n && j < len(min); j++ {
		if n.recvd[j] < min[j] {
			return false
		}
	}
	return true
}

// WaitCausalApplied blocks until at least min[j] updates from each process j
// have met their causal-view obligations locally: applied to the causal view
// for dependency-stamped updates, applied to the PRAM view for
// timestamp-elided ones (their registration contract voids the causal
// obligation). Under full broadcast this is exactly "applied to the causal
// view"; under scoped placement the count-based phrasing stays sound where
// per-sender sequence numbers have holes.
func (n *Node) WaitCausalApplied(min []uint64) {
	if n.pramOnly {
		n.WaitReceived(min)
		return
	}
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	n.flushAllLocked()
	start := time.Now()
	for !n.causalCountsReachedLocked(min) && !n.closed.Load() {
		n.clockCond.Wait()
	}
	d := int64(time.Since(start))
	n.statBlocked.Add(d)
	n.statBlockedCausal.Add(d)
	if n.obs != nil {
		n.obs.Record(obs.EvWaitCounts, 0, 0, obs.NoLoc, 0, uint64(d), 1)
	}
}

func (n *Node) causalCountsReachedLocked(min []uint64) bool {
	for j := 0; j < n.n && j < len(min); j++ {
		if n.causalRecvd[j] < min[j] {
			return false
		}
	}
	return true
}

// WriteRecord identifies one of the node's own updates: the location and the
// per-sender sequence number it was broadcast with.
type WriteRecord struct {
	Loc string
	Seq uint64
}

// WriteMark returns a marker into the node's write log. Combined with
// WritesSince it delimits the write-set of a critical section. Marks are
// absolute positions and stay valid across TrimWriteLog. The first call
// turns logging on: positions are own-write counts, so enabling mid-life
// keeps every subsequent mark exactly where eager logging would have put it.
func (n *Node) WriteMark() int {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	if !n.logOn {
		n.logOn = true
		n.logBase = int(n.deps.get(n.id))
	}
	return n.logBase + len(n.writeLog)
}

// WritesSince returns a copy of the node's own updates recorded at or after
// the given marker. Entries already trimmed are gone; callers trim only
// below their oldest outstanding mark.
func (n *Node) WritesSince(mark int) []WriteRecord {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	idx := mark - n.logBase
	if idx < 0 {
		idx = 0
	}
	if idx > len(n.writeLog) {
		idx = len(n.writeLog)
	}
	out := make([]WriteRecord, len(n.writeLog)-idx)
	copy(out, n.writeLog[idx:])
	return out
}

// TrimWriteLog discards write-log entries before the given absolute mark,
// bounding the log's memory. The lock client calls it after each unlock with
// its oldest still-outstanding mark.
func (n *Node) TrimWriteLog(upTo int) {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	idx := upTo - n.logBase
	if idx <= 0 {
		return
	}
	if idx > len(n.writeLog) {
		idx = len(n.writeLog)
	}
	kept := len(n.writeLog) - idx
	copy(n.writeLog, n.writeLog[idx:])
	n.writeLog = n.writeLog[:kept]
	n.logBase += idx
}

// Invalidate marks loc stale until the update (from, seq) has been applied:
// the demand-driven propagation mode of Section 6, where the write-set of a
// critical section travels with the unlock and only reads of invalidated
// locations block.
func (n *Node) Invalidate(loc string, from int, seq uint64) {
	sh := n.shard(loctab.Hash(loc))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.invalid[loc]; ok && cur.seq >= seq && cur.from == from {
		return
	}
	if sh.invalid == nil {
		sh.invalid = make(map[string]invalidation)
	}
	sh.invalid[loc] = invalidation{from: from, seq: seq}
	sh.invalidLen.Store(int32(len(sh.invalid)))
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := Stats{
		Writes:              n.statWrites.Load(),
		SCReads:             n.statSCReads.Load(),
		SCWrites:            n.statSCWrites.Load(),
		Awaits:              n.statAwaits.Load(),
		Blocked:             time.Duration(n.statBlocked.Load()),
		BlockedAwait:        time.Duration(n.statBlockedAwait.Load()),
		BlockedCausalWait:   time.Duration(n.statBlockedCausal.Load()),
		BlockedSC:           time.Duration(n.statBlockedSC.Load()),
		BlockedInvalidation: time.Duration(n.statBlockedInval.Load()),
		MalformedUpdates:    n.statMalformed.Load(),
		PendingGroups:       n.parked.Load(),
		PendingGroupsMax:    n.parkedMax.Load(),
	}
	for i := range n.shards {
		s.PRAMReads += n.shards[i].pramReads.Load()
		s.CausalReads += n.shards[i].causalReads.Load()
		s.SlowReads += n.shards[i].slowReads.Load()
	}
	return s
}

// Snapshot returns a copy of the requested view's contents, for debugging
// and result extraction in examples. causalView selects the causal view.
// Cells exist only for locations some write or apply touched; a location the
// selected view never received reads as zero, matching the map semantics.
func (n *Node) Snapshot(causalView bool) map[string]int64 {
	out := make(map[string]int64)
	for i := range n.shards {
		n.shards[i].vals.Range(func(loc string, c *cell) {
			if causalView {
				out[loc] = c.causal.Load()
			} else {
				out[loc] = c.pram.Load()
			}
		})
	}
	return out
}

// Close unblocks all waiters and waits for the receive loop to exit. The
// fabric must be closed (or still delivering) for the loop to finish;
// closing the fabric first is the usual order. Pending outbox batches are
// flushed best-effort (a closed fabric drops them silently), and the linger
// flusher is stopped.
func (n *Node) Close() {
	n.clockMu.Lock()
	first := !n.closed.Load()
	if first && n.batch.Enabled {
		n.flushAllLocked()
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
