// Package syncmgr implements the synchronization layer of Section 6 of the
// paper: lock and barrier manager processes reachable over the fabric, the
// client sides that processes call, and the three propagation modes for
// critical-section updates — eager, lazy, and demand-driven.
//
// Every lock is mapped to a lock-manager process and every barrier to a
// barrier-manager process, exactly as the paper describes. Managers are
// message-driven state machines running on a node's receive loop; all their
// actions are non-blocking sends, so a manager can share a node with a
// worker process.
//
// Every component sends through its node's Dispatcher, and a message a node
// addresses to itself never reaches the transport: the dispatcher hands it to
// the registered handler in place, on the sender's goroutine. A handler may
// therefore run on the receive loop or on any goroutine of its own node that
// sends, so it must not block, and no component may send while holding its
// own client mutex — handlers send under the manager mutex and then take a
// client's, so the lock order is manager before client.
package syncmgr

import (
	"sync"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
)

// Message kinds used by the synchronization protocols.
const (
	KindLockReq    = "lock-req"
	KindLockGrant  = "lock-grant"
	KindLockRel    = "lock-rel"
	KindFlush      = "flush"
	KindFlushAck   = "flush-ack"
	KindBarArrive  = "bar-arrive"
	KindBarRelease = "bar-release"
)

// PropagationMode selects how critical-section updates become visible to the
// next lock holder (Section 6).
type PropagationMode int

// The three propagation modes.
const (
	// Eager: the releasing process broadcasts a flush and collects
	// acknowledgements from every process before the lock is released, so
	// the effects of the critical section are globally visible at unlock.
	Eager PropagationMode = iota + 1
	// Lazy: update-message counts travel with the unlock to the manager;
	// the next holder waits for the counted messages at acquire time.
	Lazy
	// DemandDriven: the write-set of the critical section travels with the
	// unlock; the next holder invalidates its local copies and only reads
	// of invalidated locations block.
	DemandDriven
)

// String names the mode.
func (m PropagationMode) String() string {
	switch m {
	case Eager:
		return "eager"
	case Lazy:
		return "lazy"
	case DemandDriven:
		return "demand-driven"
	default:
		return "mode(?)"
	}
}

// Dispatcher routes protocol messages delivered to one node to the lock and
// barrier components registered on it, and is the one path those components
// send by. It implements the dsm.Handler shape.
type Dispatcher struct {
	self int
	tr   transport.Transport

	mu     sync.RWMutex
	routes map[string]func(network.Message)
}

// NewDispatcher returns an empty dispatcher for node self, which sends over
// tr.
func NewDispatcher(self int, tr transport.Transport) *Dispatcher {
	return &Dispatcher{self: self, tr: tr, routes: make(map[string]func(network.Message))}
}

// Register installs fn as the handler for messages of the given kind.
// Later registrations replace earlier ones.
func (d *Dispatcher) Register(kind string, fn func(network.Message)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.routes[kind] = fn
}

// Handle routes one message; unknown kinds are dropped.
func (d *Dispatcher) Handle(m network.Message) {
	d.mu.RLock()
	fn := d.routes[m.Kind]
	d.mu.RUnlock()
	if fn != nil {
		fn(m)
	}
}

// send delivers one protocol message from this node. A message to the node
// itself is handled in place — a process needs no channel to reach a manager
// it hosts (Section 6) — and every other one goes to the transport. In place
// is safe because every handler only updates state under its own mutex and
// then sends or fills a one-slot waiter channel nobody else fills.
func (d *Dispatcher) send(m network.Message) {
	if m.To == d.self {
		d.Handle(m)
		return
	}
	_ = d.tr.Send(m)
}
