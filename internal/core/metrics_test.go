package core

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// Registry builds the system-wide registry for an in-process deployment:
// the transport's accounting under "net" (with the summed link diagnostics
// when it is a tcp fleet) plus every process's sections under "proc<i>/".
// One JSON document covers the whole fleet, which is what these tests and
// the served-keys golden pin.
func (s *System) Registry() *obs.Registry {
	r := obs.NewRegistry()
	registerNet(r, s.fabric)
	for i, p := range s.procs {
		registerProcSections(r, fmt.Sprintf("proc%d/", i), p)
	}
	return r
}

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
		m := p.MemStats()
		c := m.BlockedByCause
		if sum := c.BlockedAwait + c.BlockedCausalWait + c.BlockedInvalidation + c.BlockedSC; sum != m.Blocked {
			t.Fatalf("proc %d: cause split %d != blocked %d", i, sum, m.Blocked)
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

	// The registry serves the snapshot as one JSON document, whose sections
	// decode back into the subsystems' own structs.
	doc := servedDoc(t, r)
	var net transport.Stats
	decodeSection(t, doc, "net", &net)
	if net.MessagesSent == 0 {
		t.Fatalf("no transport accounting: %+v", net)
	}
	var locks syncmgr.ClientStats
	var bars syncmgr.BarrierStats
	decodeSection(t, doc, "proc1/sync", &locks)
	decodeSection(t, doc, "proc1/sync", &bars)
	if locks.Acquires == 0 || bars.Barriers == 0 {
		t.Fatalf("sync counters missing: %+v %+v", locks, bars)
	}
	var mem map[string]json.RawMessage
	decodeSection(t, doc, "proc0/mem", &mem)
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
	doc := servedDoc(t, sys.Registry())
	var net transport.Stats
	var diag tcp.Diag
	decodeSection(t, doc, "net", &net)
	decodeSection(t, doc, "net", &diag)
	if diag.Dials < 2 || net.MessagesSent == 0 || net.PerKind[syncmgr.KindBarRelease] == 0 {
		t.Fatalf("registry net section over a tcp fleet: %+v %+v", net, diag)
	}
}

// servedDoc serves r as /metrics and splits the document into its sections.
func servedDoc(t *testing.T, r *obs.Registry) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("registry JSON: %v", err)
	}
	return doc
}

// decodeSection decodes one served section into v.
func decodeSection(t *testing.T, doc map[string]json.RawMessage, name string, v any) {
	t.Helper()
	if err := json.Unmarshal(doc[name], v); err != nil {
		t.Fatalf("section %q: %v\n%s", name, err, doc[name])
	}
}
