package core

import (
	"fmt"

	"mixedmem/internal/dsm"
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
)

// PeerConfig configures one process of a distributed deployment: a single
// mixed-consistency node running over a wire transport (one OS process per
// node, the paper's actual Maya-on-workstations setting; cmd/mixednode). The
// peer whose ID equals ManagerProc additionally hosts the lock and barrier
// managers, just as NewSystem places them on one of the in-process nodes. A
// deployment whose processes all live in this OS process — over sockets or
// not — is a System instead.
type PeerConfig struct {
	// ID is this process's identity, 0..N-1, where N is the transport's
	// node count. Required.
	ID int
	// Transport is the message substrate connecting the peers; it must
	// serve Recv for ID. Required. The peer owns it: Peer.Close closes it.
	Transport transport.Transport
	// Propagation selects how critical-section updates reach the next lock
	// holder. Zero value means Lazy.
	Propagation syncmgr.PropagationMode
	// ManagerProc hosts the lock and barrier managers (default process 0).
	ManagerProc int
	// PRAMOnly elides vector timestamps and keeps only the PRAM view, as
	// in Config.PRAMOnly.
	PRAMOnly bool
	// Scope restricts each location's updates to its registered readers, as
	// in Config.Placement. All peers of a deployment must agree on the map.
	Scope *dsm.ScopeMap
	// Batch configures the per-destination update outbox, as in
	// Config.Batch. All peers of a deployment should agree on whether
	// batching is enabled only as a matter of symmetry — the receive path
	// handles single updates and batches regardless.
	Batch dsm.BatchConfig
	// TraceCapacity, when positive, gives this peer's node an event tracer
	// ring of that many slots, as in Config.TraceCapacity.
	TraceCapacity int
}

// Peer is one process's slice of a distributed mixed-consistency system: a
// Proc handle backed by a wire transport instead of the shared in-process
// fabric. The same application code runs against either — only the
// construction differs.
type Peer struct {
	proc *Proc
	tr   transport.Transport
}

// NewPeer builds one process of a distributed deployment — wired exactly as
// NewSystem wires each of its processes — and starts the receive loop.
// Callers must Close the peer.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("core: peer: nil transport")
	}
	n := cfg.Transport.Nodes()
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("core: peer id %d out of range for %d nodes", cfg.ID, n)
	}
	proc, err := newProc(dsm.Config{
		ID: cfg.ID, N: n, Transport: cfg.Transport,
		PRAMOnly: cfg.PRAMOnly, Scope: cfg.Scope,
		Batch: cfg.Batch,
	}, cfg.ManagerProc, cfg.Propagation, cfg.TraceCapacity, nil)
	if err != nil {
		return nil, err
	}
	return &Peer{proc: proc, tr: cfg.Transport}, nil
}

// Proc returns the process handle. It implements the same Process interface
// as the in-process system's handles.
func (p *Peer) Proc() *Proc { return p.proc }

// NetStats returns the transport's message accounting (local sends only on
// distributed backends).
func (p *Peer) NetStats() transport.Stats { return p.tr.Stats() }

// Tracer returns the peer's event tracer, or nil when built without
// PeerConfig.TraceCapacity.
func (p *Peer) Tracer() *obs.Tracer { return p.proc.Tracer() }

// Registry builds the peer's unified metrics registry: its process's
// sections (mem, sync, trace) plus this peer's transport accounting under
// "net" — including TCP link diagnostics when the transport is the tcp
// backend. `mixednode -obs` serves it as JSON.
func (p *Peer) Registry() *obs.Registry {
	r := obs.NewRegistry()
	registerProcSections(r, "", p.proc)
	registerNet(r, p.tr)
	return r
}

// Close shuts down the transport and the node.
func (p *Peer) Close() {
	p.tr.Close()
	p.proc.node.Close()
}
