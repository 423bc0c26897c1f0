package core

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport/tcp"
)

// TestRegistryUnifiesSubsystems runs a small traced workload and checks the
// unified registry surfaces every subsystem's counters in one snapshot: the
// memory layer (with the per-cause blocked split summing to the aggregate),
// the transport, the sync clients, and the tracer's own ring state.
func TestRegistryUnifiesSubsystems(t *testing.T) {
	sys, err := NewSystem(Config{Procs: 2, TraceCapacity: 1024})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	sys.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Write("data", 7)
			p.Write("ready", 1)
		} else {
			p.Await("ready", 1)
			_ = p.ReadCausal("data")
		}
		p.WLock("l")
		p.WUnlock("l")
		p.Barrier()
	})

	for i := 0; i < 2; i++ {
		p := sys.Proc(i)
		if p.Tracer() == nil {
			t.Fatalf("proc %d: nil tracer under TraceCapacity", i)
		}
		if p.Tracer().Recorded() == 0 {
			t.Fatalf("proc %d: tracer recorded nothing", i)
		}
		m := MemMetricsOf(p.MemStats())
		var sum int64
		for _, v := range m.BlockedByCause {
			sum += v
		}
		if sum != m.BlockedNS {
			t.Fatalf("proc %d: cause split %d != blocked %d", i, sum, m.BlockedNS)
		}
		tm := obs.TraceMetricsOf(p.Tracer())
		if !tm.Enabled || tm.Recorded == 0 {
			t.Fatalf("proc %d: trace metrics %+v", i, tm)
		}
	}

	r := sys.Registry()
	snap := r.Snapshot()
	for _, want := range []string{"net", "proc0/mem", "proc1/sync", "proc0/trace"} {
		if _, ok := snap[want]; !ok {
			t.Fatalf("registry missing section %q (have %v)", want, r.SectionNames())
		}
	}
	net := snap["net"].(obs.NetMetrics)
	if net.MessagesSent == 0 {
		t.Fatalf("no transport accounting: %+v", net)
	}
	sy := snap["proc1/sync"].(obs.SyncMetrics)
	if sy.LockAcquires == 0 || sy.Barriers == 0 {
		t.Fatalf("sync counters missing: %+v", sy)
	}

	// The registry serves the same snapshot as one JSON document.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("registry JSON: %v", err)
	}
	var mem map[string]json.RawMessage
	if err := json.Unmarshal(doc["proc0/mem"], &mem); err != nil {
		t.Fatalf("served document missing proc0/mem: %v\n%s", err, rec.Body.String())
	}
	// The causal-delivery backlog gauges ride in the memory section.
	for _, key := range []string{"pendingGroups", "pendingGroupsMax"} {
		if _, ok := mem[key]; !ok {
			t.Fatalf("proc0/mem missing %q: %s", key, doc["proc0/mem"])
		}
	}
}

// TestTracerDisabledByDefault pins that the zero config carries no tracer:
// Proc.Tracer returns nil and the trace section reports disabled.
func TestTracerDisabledByDefault(t *testing.T) {
	sys, err := NewSystem(Config{Procs: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	if sys.Proc(0).Tracer() != nil {
		t.Fatal("tracer present without TraceCapacity")
	}
	if tm := obs.TraceMetricsOf(sys.Proc(0).Tracer()); tm.Enabled {
		t.Fatalf("trace metrics enabled without tracer: %+v", tm)
	}
}

// TestSystemRegistryServesFleetDiag: a System over the loopback tcp fleet
// serves the fleet's link diagnostics — summed over its nodes — under "net",
// next to the message accounting every substrate reports.
func TestSystemRegistryServesFleetDiag(t *testing.T) {
	fleet, err := tcp.NewFleet(2)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	sys, err := NewSystem(Config{Procs: 2, Transport: fleet})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	sys.Run(func(p *Proc) { p.Barrier() }) // traffic both ways: both channels are dialed
	net := sys.Registry().Snapshot()["net"].(obs.NetMetrics)
	if net.Dials < 2 || net.MessagesSent == 0 || net.PerKind[syncmgr.KindBarRelease] == 0 {
		t.Fatalf("registry net section over a tcp fleet: %+v", net)
	}
}
