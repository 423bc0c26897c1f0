// Package obs is the observability layer: a per-node, lock-free,
// fixed-capacity event tracer whose records carry enough logical metadata
// (sender, sequence number, batch ranges) that the cross-node
// happens-before edges of a run — write issue → outbox enqueue → flush →
// wire → apply → delivery-group release → await wakeup — can be
// reconstructed offline by matching events, plus the exporters that make
// the reconstruction usable: a Chrome trace-event (Perfetto-loadable)
// exporter, a causal-path latency explainer that attributes each
// write-visibility sample to named segments of that chain, and a unified
// metrics registry serving every subsystem's counters as one JSON
// snapshot.
//
// obs is a leaf package: the DSM, the sync managers, and the TCP
// transport all call into it, so it imports none of them. Everything a
// record carries is scalar; locations are interned to small indices so
// recording is allocation-free (see Tracer).
package obs

// EventType identifies what a trace event records. The comment on each
// type names the fields it populates beyond Node and Time.
type EventType uint8

// Event types. The write-visibility chain the explainer walks is, in
// order: EvWriteIssue → EvEnqueue → EvFlush → EvRecv/EvRecvBatch →
// EvApply → EvGroupRelease → EvAwaitEnd.
const (
	// EvNone marks an empty or torn ring slot; never exported.
	EvNone EventType = iota
	// EvWriteIssue: a local write was assigned its sequence number.
	// Loc, Seq, Label; A = destination count, B = the dsm.UpdateOp (OpSet
	// for plain writes, the Add variants for commutative counter updates;
	// 0 in traces recorded before the op was carried).
	EvWriteIssue
	// EvEnqueue: an update entered the outbox pending batch for Peer.
	// Peer, Seq, Loc; A = pending updates in that batch after the add.
	EvEnqueue
	// EvFlush: the pending batch for Peer was flushed to the transport.
	// Peer, Seq = first covered sequence number, A = last covered
	// sequence number (inclusive — under scoped placement the range has
	// holes, so a count would under-cover), B = update count.
	EvFlush
	// EvSend: a non-update protocol message was sent. Peer, A = kind.
	EvSend
	// EvRecv: a singleton update was received (before apply).
	// Peer = sender, Seq, Loc.
	EvRecv
	// EvRecvBatch: an update batch was received (before apply).
	// Peer = sender, Seq = first sequence number, A = last sequence
	// number (inclusive), B = update count.
	EvRecvBatch
	// EvApply: an update was applied to the receive-order (PRAM) view.
	// Peer = sender, Seq, Loc.
	EvApply
	// EvGroupRelease: a delivery group became causally applicable and was
	// applied to the causal view. Peer = sender, Seq = first sequence
	// number, A = last sequence number (inclusive), B = update count.
	EvGroupRelease
	// EvDepWaitBegin: a delivery group parked on unmet dependencies.
	// Peer = sender, Seq = FirstSeq.
	EvDepWaitBegin
	// EvDepWaitEnd: the parked group's dependencies were met.
	// Peer = sender, Seq = FirstSeq, A = parked nanoseconds.
	EvDepWaitEnd
	// EvAwaitBegin: Await(loc, v) started waiting. Loc, A = target value.
	EvAwaitBegin
	// EvAwaitEnd: Await matched. Loc, Label; Peer and Seq name the matched
	// write (the PRAM last-writer anchor at wakeup; zero Seq when the
	// location was never anchored); A = waited nanoseconds.
	EvAwaitEnd
	// EvFenceWait: a causal read blocked on the observation fence.
	// Loc, A = waited nanoseconds.
	EvFenceWait
	// EvInvalWait: a read blocked on an invalidation (demand-driven lock
	// propagation). Loc, Peer = writer, Seq, A = waited nanoseconds.
	EvInvalWait
	// EvWaitCounts: WaitReceived or WaitCausalApplied returned.
	// A = waited nanoseconds, B = 1 for the causal variant. The wait's
	// target is a vector of sequence numbers, one per sender, so Peer and
	// Seq stay zero.
	EvWaitCounts
	// EvSCRequest: an SC round trip to the location's owner began.
	// Loc, Peer = owner, Seq = request ID.
	EvSCRequest
	// EvSCReply: the SC round trip completed. Loc, Peer = owner,
	// Seq = request ID, A = blocked nanoseconds.
	EvSCReply
	// EvLockAcquire: a lock grant arrived. Loc = lock name,
	// A = waited nanoseconds, B = 1 for write mode.
	EvLockAcquire
	// EvLockRelease: a lock was released. Loc = lock name,
	// A = release-protocol nanoseconds, B = 1 for write mode.
	EvLockRelease
	// EvBarrierEnter: a barrier arrival was announced. Loc = group,
	// Seq = episode.
	EvBarrierEnter
	// EvBarrierExit: the barrier released and all pre-arrival updates were
	// applied. Loc = group, Seq = episode, A = waited nanoseconds.
	EvBarrierExit

	evTypeCount // sentinel; keep last
)

var evNames = [evTypeCount]string{
	EvNone:         "none",
	EvWriteIssue:   "write-issue",
	EvEnqueue:      "enqueue",
	EvFlush:        "flush",
	EvSend:         "send",
	EvRecv:         "recv",
	EvRecvBatch:    "recv-batch",
	EvApply:        "apply",
	EvGroupRelease: "group-release",
	EvDepWaitBegin: "dep-wait-begin",
	EvDepWaitEnd:   "dep-wait-end",
	EvAwaitBegin:   "await-begin",
	EvAwaitEnd:     "await-end",
	EvFenceWait:    "fence-wait",
	EvInvalWait:    "inval-wait",
	EvWaitCounts:   "wait-counts",
	EvSCRequest:    "sc-request",
	EvSCReply:      "sc-reply",
	EvLockAcquire:  "lock-acquire",
	EvLockRelease:  "lock-release",
	EvBarrierEnter: "barrier-enter",
	EvBarrierExit:  "barrier-exit",
}

// String names the event type the way the exporters do.
func (t EventType) String() string {
	if int(t) < len(evNames) && evNames[t] != "" {
		return evNames[t]
	}
	return "event#" + itoa(int(t))
}

// itoa is strconv.Itoa for small non-negative ints without importing
// strconv into every caller's inlining budget.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// NoLoc is the Loc value of an event that names no location.
const NoLoc = ^uint32(0)

// Event is one decoded trace record. Index is the event's position in its
// node's record stream (0-based, monotone; gaps mean the ring wrapped over
// the missing records). Loc indexes Snapshot.Locs, or NoLoc.
type Event struct {
	Index uint64
	Time  int64 // wall clock, UnixNano
	Type  EventType
	Label uint8
	Peer  uint16
	Loc   uint32
	Seq   uint64
	A, B  uint64
}

// Snapshot is the drained state of one node's ring: the surviving events
// in record order plus the intern table resolving their Loc indices. Tag
// is assigned by the collector to name the run/configuration the node
// belonged to (e.g. an S1 cell like "causal-scoped/r4000"); the explainer
// groups by it.
type Snapshot struct {
	Tag      string
	Node     int
	Capacity int
	// Recorded is the total number of events ever recorded; Dropped is how
	// many of them the ring had overwritten by snapshot time. Events whose
	// Index is below Dropped may still appear if they were read before
	// being overwritten.
	Recorded uint64
	Dropped  uint64
	Locs     []string
	Events   []Event
}

// LocName resolves an event's location index against the snapshot's
// intern table.
func (s *Snapshot) LocName(loc uint32) string {
	if loc == NoLoc || int(loc) >= len(s.Locs) {
		return ""
	}
	return s.Locs[loc]
}
