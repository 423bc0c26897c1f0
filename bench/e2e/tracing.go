package main

import (
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
)

// traceCapacity is the event-ring size of a traced node. Every traced epoch
// records more than this and wraps, which obs.ring_dropped reports; the
// explainer then walks the chains of the epoch's last rounds, and counts
// those whose write-issue anchor was overwritten as incomplete. (Its range
// lookups are linear, so a ring holding a whole paced epoch costs seconds
// per epoch to explain.)
const traceCapacity = 1 << 16

// tracing is the harness-side state of one traced epoch: the decorators it
// has handed out for the fleet currently running.
type tracing struct {
	phase   string
	wire    *wireLog
	spies   []*procSpy
	started time.Time
}

func newTracing(phase string) *tracing {
	return &tracing{phase: phase, wire: newWireLog(fleetProcs)}
}

// spyOn decorates one process of the fleet about to run.
func (tr *tracing) spyOn(p *core.Proc) core.Process {
	if len(tr.spies) == 0 {
		tr.started = time.Now()
	}
	s := newProcSpy(p)
	tr.spies = append(tr.spies, s)
	return s
}

// layerSample is what one epoch contributes to the per-layer metrics. The
// counter fields are read from always-on public counters on every epoch;
// the rest is filled only on traced epochs.
type layerSample struct {
	// Always-on counters.
	blockedAwaitNS, blockedCausalNS, blockedInvalNS int64
	acquires, barriers                              uint64
	acquireNS, releaseNS, barrierNS                 int64
	perKind                                         map[string]uint64
	replayed, decodeErrors                          uint64
	heapMB, gcCPUS, cpuTotalS                       float64
	gcCycles                                        uint32

	// Decorators and tracers.
	clock                  opClock
	sends, recvs           int64
	sendNS, busyNS, idleNS int64
	inflightMax            int64
	transitUS              []float64
	codec                  []wireSample
	ringDropped            uint64
	explain                *obs.Breakdown
	// Paced-phase latency summaries of the application's own samples; the
	// runner fills them in.
	opP50US, opP99US, visP99US float64
}

// readCounters folds the always-on counters of the fleet that just ran into
// the epoch's sample.
func readCounters(s *layerSample, fl *fleet, w transport.Stats, c cost) *layerSample {
	if s == nil {
		s = &layerSample{perKind: map[string]uint64{}}
	}
	for _, p := range fl.procs {
		m := p.MemStats()
		s.blockedAwaitNS += int64(m.BlockedAwait)
		s.blockedCausalNS += int64(m.BlockedCausalWait)
		s.blockedInvalNS += int64(m.BlockedInvalidation)
		ls, bs := p.LockStats(), p.BarrierStats()
		s.acquires += ls.Acquires
		s.acquireNS += int64(ls.AcquireWait)
		s.releaseNS += int64(ls.ReleaseWait)
		s.barriers += bs.Barriers
		s.barrierNS += int64(bs.Wait)
	}
	for k, v := range w.PerKind {
		s.perKind[k] += v
	}
	d := fl.tcpDiag()
	s.replayed += d.Replayed
	s.decodeErrors += d.DecodeErrors
	if mb := float64(c.heap) / (1 << 20); mb > s.heapMB {
		s.heapMB = mb
	}
	s.gcCycles += c.gcCycles
	s.gcCPUS += c.gcCPU
	s.cpuTotalS += c.cpuTotal
	return s
}

// collect folds what the decorators and tracers of the fleet that just ran
// recorded into the epoch's sample, and resets the decorators for the
// epoch's next fleet, if any.
func (tr *tracing) collect(s *layerSample, fl *fleet) {
	mainNS := int64(time.Since(tr.started)) // every main strand ran for the whole call
	for _, spy := range tr.spies {
		t := spy.total(mainNS)
		s.clock.add(&t)
	}
	l := tr.wire
	l.mu.Lock()
	s.sends += l.sends.Load()
	s.recvs += l.recvs.Load()
	s.sendNS += l.sendNS.Load()
	s.busyNS += l.busyNS
	s.idleNS += l.idleNS
	if in := l.inflightMax.Load(); in > s.inflightMax {
		s.inflightMax = in
	}
	s.transitUS = append(s.transitUS, l.transit...)
	s.codec = append(s.codec, l.codec...)
	l.mu.Unlock()

	snaps := make([]*obs.Snapshot, 0, len(fl.procs))
	for _, p := range fl.procs {
		s.ringDropped += obs.TraceMetricsOf(p.Tracer()).Dropped
		if tr.phase != phaseSaturated {
			snaps = append(snaps, p.Tracer().Snapshot())
		}
	}
	if len(snaps) > 0 {
		if ex := obs.Explain(snaps, apps.IsVisFlagLoc); len(ex.Breakdowns) == 1 {
			s.explain = &ex.Breakdowns[0]
		}
	}
	// A later fleet of the same epoch starts from fresh decorators; stray
	// receives of this fleet's shutdown land in the discarded log.
	tr.wire, tr.spies = newWireLog(fleetProcs), nil
}

// codecCell re-encodes and decodes the captured payloads and returns the
// mean cost per message and the mean encoded size.
func codecCell(samples []wireSample) (encodeNS, decodeNS, bytes float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	// Repeat so that one measurement spans well over the clock's grain.
	const reps = 8
	payloads := make([]any, len(samples))
	var size int
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i, sm := range samples {
			p, err := transport.DecodePayload(sm.kind, sm.data)
			if err != nil {
				return 0, 0, 0
			}
			payloads[i] = p
		}
	}
	decodeNS = float64(time.Since(start)) / float64(reps*len(samples))
	var buf []byte
	start = time.Now()
	for r := 0; r < reps; r++ {
		for i, sm := range samples {
			buf, _ = transport.EncodePayload(buf[:0], sm.kind, payloads[i])
		}
	}
	encodeNS = float64(time.Since(start)) / float64(reps*len(samples))
	for _, sm := range samples {
		size += len(sm.data)
	}
	return encodeNS, decodeNS, float64(size) / float64(len(samples))
}
