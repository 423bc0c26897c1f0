package core

import (
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// This file wires the subsystem counters into the unified metrics registry
// (internal/obs). Every section is the snapshot struct its subsystem already
// exports — dsm.Stats, syncmgr.ClientStats and BarrierStats, transport.Stats
// and tcp.Diag — whose JSON tags are the served keys, so a counter is
// declared once, next to the atomic that feeds it.

// registerProcSections adds one process's sections — "mem", "sync",
// "trace", each under prefix — to a registry. Sections are closures over the
// live process, so every snapshot observes current counters.
func registerProcSections(r *obs.Registry, prefix string, p *Proc) {
	r.Register(prefix+"mem", func() any { return p.MemStats() })
	r.Register(prefix+"sync", func() any {
		return struct {
			syncmgr.ClientStats
			syncmgr.BarrierStats
		}{p.LockStats(), p.BarrierStats()}
	})
	r.Register(prefix+"trace", func() any { return obs.TraceMetricsOf(p.Tracer()) })
}

// registerNet adds the transport's accounting as the "net" section. When the
// backend is a tcp transport — one node's, or a loopback fleet's sum — its
// link diagnostics ride along; on the simulated fabric they are zero and
// omitted.
func registerNet(r *obs.Registry, tr transport.Transport) {
	r.Register("net", func() any {
		var d tcp.Diag
		if dt, ok := tr.(interface{ Diag() tcp.Diag }); ok {
			d = dt.Diag()
		}
		return struct {
			transport.Stats
			tcp.Diag
		}{tr.Stats(), d}
	})
}
