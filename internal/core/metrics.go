package core

import (
	"fmt"

	"mixedmem/internal/dsm"
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// This file wires the subsystem counters into the unified metrics registry
// (internal/obs). obs is a leaf package that knows nothing about dsm,
// network, or syncmgr, so the conversions live here with the package that
// already depends on all of them.

// MemMetricsOf converts the memory layer's counters into the registry's
// snapshot shape. The per-cause blocked map carries the exact partition of
// Stats.Blocked (see the dsm regression test pinning that the four causes
// sum to the aggregate).
func MemMetricsOf(s dsm.Stats) obs.MemMetrics {
	return obs.MemMetrics{
		Writes:      s.Writes,
		PRAMReads:   s.PRAMReads,
		CausalReads: s.CausalReads,
		SlowReads:   s.SlowReads,
		SCReads:     s.SCReads,
		SCWrites:    s.SCWrites,
		Awaits:      s.Awaits,
		BlockedNS:   int64(s.Blocked),
		BlockedByCause: map[string]int64{
			"await":        int64(s.BlockedAwait),
			"causal-wait":  int64(s.BlockedCausalWait),
			"sc":           int64(s.BlockedSC),
			"invalidation": int64(s.BlockedInvalidation),
		},
		MalformedUpdates: s.MalformedUpdates,
		PendingGroups:    s.PendingGroups,
		PendingGroupsMax: s.PendingGroupsMax,
	}
}

// NetMetricsOf snapshots a transport's accounting into the registry shape.
// When the backend is a TCP transport — one node's, or a loopback fleet's
// sum — its link diagnostics (dials, replays, dedup drops, acks sent,
// replay-log bytes held) ride along; the simulated fabric reports zeros
// there. The returned value owns its containers (transport Stats are
// copy-on-read).
func NetMetricsOf(tr transport.Transport) obs.NetMetrics {
	s := tr.Stats()
	m := obs.NetMetrics{
		MessagesSent: s.MessagesSent,
		BytesSent:    s.BytesSent,
		PerNodeSent:  s.PerNodeSent,
		PerKind:      s.PerKind,
		PerKindBytes: s.PerKindBytes,
	}
	if dt, ok := tr.(interface{ Diag() tcp.Diag }); ok {
		d := dt.Diag()
		m.Dials = d.Dials
		m.DialFailures = d.DialFailures
		m.Replayed = d.Replayed
		m.Duplicates = d.Duplicates
		m.DecodeErrors = d.DecodeErrors
		m.Gaps = d.Gaps
		m.AcksSent = d.AcksSent
		m.LogBytes = d.LogBytes
	}
	return m
}

// SyncMetricsOf combines a process's lock- and barrier-client counters into
// the registry shape.
func SyncMetricsOf(ls syncmgr.ClientStats, bs syncmgr.BarrierStats) obs.SyncMetrics {
	return obs.SyncMetrics{
		LockAcquires:  ls.Acquires,
		LockAcquireNS: int64(ls.AcquireWait),
		LockReleaseNS: int64(ls.ReleaseWait),
		Barriers:      bs.Barriers,
		BarrierWaitNS: int64(bs.Wait),
	}
}

// registerProcSections adds one process's sections — "mem", "sync",
// "trace", each under prefix — to a registry. Sections are closures over the
// live process, so every snapshot observes current counters.
func registerProcSections(r *obs.Registry, prefix string, p *Proc) {
	r.Register(prefix+"mem", func() any { return MemMetricsOf(p.MemStats()) })
	r.Register(prefix+"sync", func() any {
		return SyncMetricsOf(p.LockStats(), p.BarrierStats())
	})
	r.Register(prefix+"trace", func() any { return obs.TraceMetricsOf(p.Tracer()) })
}

// Registry builds one process's unified metrics registry: memory-layer
// counters with the per-cause blocked split, synchronization-client
// counters, and the tracer's own ring state.
func (p *Proc) Registry() *obs.Registry {
	r := obs.NewRegistry()
	registerProcSections(r, "", p)
	return r
}

// Registry builds the system-wide registry for an in-process deployment:
// the transport's accounting under "net" (with the summed link diagnostics
// when it is a tcp fleet) plus every process's sections under "proc<i>/".
// One JSON document covers the whole fleet, which is what the
// single-OS-process benchmarks want.
func (s *System) Registry() *obs.Registry {
	r := obs.NewRegistry()
	fabric := s.fabric
	r.Register("net", func() any { return NetMetricsOf(fabric) })
	for i, p := range s.procs {
		registerProcSections(r, fmt.Sprintf("proc%d/", i), p)
	}
	return r
}
