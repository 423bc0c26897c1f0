// Package transport abstracts the message-passing substrate the
// mixed-consistency runtime runs on.
//
// The paper's implementation sketch (Section 6) assumes only reliable FIFO
// channels between every ordered pair of processes. Anything providing that
// guarantee can carry the runtime: the in-process simulated fabric
// (internal/network), or real per-pair TCP connections between OS processes
// (internal/transport/tcp). The Transport interface is the exact method set
// the replicated-memory nodes (internal/dsm) and the synchronization
// managers (internal/syncmgr) use, extracted from the concrete
// *network.Fabric API, so the whole runtime is backend-agnostic: the same
// application code runs on either substrate with only the Transport value in
// the configuration changed.
//
// The package also hosts the payload codec registry the wire backends use to
// serialize protocol payloads. Protocol packages (dsm, syncmgr) register a
// binary codec for each message kind they define; in-process backends ignore
// the registry and pass payloads by reference.
package transport

import (
	"mixedmem/internal/network"
)

// Message is the unit of communication between two nodes. It is an alias of
// the simulated fabric's message type so the two substrates share one
// vocabulary and the fabric keeps satisfying Transport unchanged.
type Message = network.Message

// Stats is a snapshot of a transport's accounting, aliased from the fabric
// for the same reason. Every backend maintains the same message/byte/
// per-kind counters so experiment rows stay comparable across backends.
type Stats = network.Stats

// Transport is a reliable-FIFO message substrate connecting n nodes,
// 0..n-1. Implementations must preserve per-ordered-pair send order
// (deliveries from different senders may interleave arbitrarily), must never
// block in Send or Broadcast (the mixed-consistency model requires
// non-blocking writes, Section 3), and must keep message/byte/per-kind
// accounting.
type Transport interface {
	// Nodes returns the number of nodes the transport connects.
	Nodes() int
	// Send enqueues m for FIFO delivery on the (m.From, m.To) channel
	// without blocking. It returns an error for invalid node IDs or
	// unencodable payloads; delivery itself is asynchronous.
	Send(m Message) error
	// Broadcast sends to every node except the sender, preserving the
	// sender's FIFO order on each channel.
	Broadcast(from int, kind string, payload any, size int) error
	// Recv blocks until a message for node is delivered. The second result
	// is false once the transport is closed and drained. Distributed
	// backends serve only their local node; Recv for a remote node returns
	// false immediately. Recv is single-consumer per node: at most one
	// goroutine may be inside Recv(node) for a given node at a time, and
	// successive receivers for a node must be ordered by their own
	// synchronization. A backend may hand messages out of a buffer only the
	// receiver touches (network.Inbox, which both backends deliver into,
	// does). Every runtime
	// receiver — the dsm node's receive loop, the seqmem server and client
	// loops — is one goroutine per node already.
	Recv(node int) (Message, bool)
	// Pending reports the number of undelivered messages queued from -> to,
	// as far as this transport instance can see. It is a test aid.
	Pending(from, to int) int
	// Stats returns a snapshot of the accounting counters.
	Stats() Stats
	// Close shuts the transport down, unblocking receivers. Implementations
	// must be idempotent.
	Close()
}

// Faults is the fault-injection surface of backends that support building
// adversarial delivery schedules (the simulated fabric). Tests that need it
// type-assert a Transport to Faults; wire backends need not implement it.
type Faults interface {
	Hold(from, to int) error
	Release(from, to int) error
	Isolate(node int) error
	Rejoin(node int) error
	SetDelayFactor(from, to int, factor float64) error
}

// Compile-time check: the simulated fabric is a Transport and supports
// fault injection.
var (
	_ Transport = (*network.Fabric)(nil)
	_ Faults    = (*network.Fabric)(nil)
)

// Sim wraps the simulated in-process fabric as a Transport. The fabric
// already provides the full method set; Sim exists so call sites read as an
// explicit backend choice.
func Sim(f *network.Fabric) Transport { return f }
