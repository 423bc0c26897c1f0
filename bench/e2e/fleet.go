package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// fleetProcs is the fleet size of every workload: the smallest fleet in
// which a broadcast differs from a point-to-point send and a barrier has
// more than one peer to count.
const fleetProcs = 3

// fleetConfig is what distinguishes one workload's fleet from another's.
type fleetConfig struct {
	// tcp selects one core.Peer per process over in-process loopback TCP;
	// otherwise one core.System on the zero-latency simulated fabric.
	tcp      bool
	pramOnly bool
	scope    *dsm.ScopeMap
	batch    dsm.BatchConfig
}

// fleet is one epoch's freshly built deployment.
type fleet struct {
	procs []*core.Proc
	// nets are the distinct transports whose counters sum to the fleet's
	// wire traffic: one per peer on tcp, the shared fabric on sim.
	nets  []transport.Transport
	tcps  []*tcp.Transport
	close func()
}

// newFleet builds the transports and processes. With a non-nil tracing
// state every transport is handed to core behind the harness's wireSpy and
// every node gets an event tracer; with nil nothing of the harness sits
// between core and its substrate.
func newFleet(c fleetConfig, tr *tracing) (*fleet, error) {
	wrap := func(t transport.Transport) transport.Transport {
		if tr == nil {
			return t
		}
		return tr.wire.spyOn(t)
	}
	traceCap := 0
	if tr != nil {
		traceCap = traceCapacity
		tr.wire.wireCodec = c.tcp
	}
	f := &fleet{}
	if !c.tcp {
		fabric, err := network.New(network.Config{Nodes: fleetProcs})
		if err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
		sys, err := core.NewSystem(core.Config{
			Procs: fleetProcs, Transport: wrap(fabric), PRAMOnly: c.pramOnly,
			Placement: c.scope, Batch: c.batch, TraceCapacity: traceCap,
		})
		if err != nil {
			fabric.Close()
			return nil, err
		}
		for i := 0; i < fleetProcs; i++ {
			f.procs = append(f.procs, sys.Proc(i))
		}
		f.nets = []transport.Transport{fabric}
		f.close = sys.Close
		return f, nil
	}

	trs, err := tcp.NewLoopback(fleetProcs, nil)
	if err != nil {
		return nil, err
	}
	peers := make([]*core.Peer, 0, fleetProcs)
	f.close = func() {
		// Let the tail of the conversation (final barrier releases) reach
		// every peer before the sockets go away.
		for _, t := range trs {
			t.Flush(2 * time.Second)
		}
		for _, p := range peers {
			p.Close()
		}
		for _, t := range trs[len(peers):] {
			t.Close()
		}
	}
	for i, t := range trs {
		p, err := core.NewPeer(core.PeerConfig{
			ID: i, Transport: wrap(t), PRAMOnly: c.pramOnly,
			Scope: c.scope, Batch: c.batch, TraceCapacity: traceCap,
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		peers = append(peers, p)
		f.procs = append(f.procs, p.Proc())
		f.nets = append(f.nets, t)
	}
	f.tcps = trs
	return f, nil
}

// run executes body once per process, each on its own goroutine, and waits
// for all of them. Traced epochs hand the body a procSpy instead of the
// process itself.
func (f *fleet) run(tr *tracing, body func(p core.Process) error) error {
	errs := make([]error, len(f.procs))
	var wg sync.WaitGroup
	for i, p := range f.procs {
		var proc core.Process = p
		if tr != nil {
			proc = tr.spyOn(p)
		}
		wg.Add(1)
		go func(i int, p core.Process) {
			defer wg.Done()
			errs[i] = body(p)
		}(i, proc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wire sums the always-on transport counters over the fleet.
func (f *fleet) wire() transport.Stats {
	total := transport.Stats{PerKind: map[string]uint64{}}
	for _, t := range f.nets {
		s := t.Stats()
		total.MessagesSent += s.MessagesSent
		total.BytesSent += s.BytesSent
		for k, v := range s.PerKind {
			total.PerKind[k] += v
		}
	}
	return total
}

// tcpDiag sums the tcp link diagnostics over the fleet (zero on sim).
func (f *fleet) tcpDiag() tcp.Diag {
	var d tcp.Diag
	for _, t := range f.tcps {
		x := t.Diag()
		d.Replayed += x.Replayed
		d.DecodeErrors += x.DecodeErrors
	}
	return d
}

// cost is what one timed call consumed, seen from outside the program.
type cost struct {
	wall, cpu float64 // seconds
	allocs    uint64  // heap objects allocated
	heap      uint64  // bytes of live + not-yet-swept heap when the call returned
	gcCycles  uint32
	// gcCPU and cpuTotal are the runtime's own estimates of CPU seconds
	// spent collecting and available in total; they advance at cycle ends.
	gcCPU, cpuTotal float64
}

// timed runs f between two readings of the wall clock, the process CPU
// clock and the allocator's counters.
func timed(f func()) cost {
	var m0, m1 runtime.MemStats
	g0, a0 := gcCPUSeconds()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	g1, a1 := gcCPUSeconds()
	return cost{
		gcCPU: g1 - g0, cpuTotal: a1 - a0,
		wall: wall, cpu: c1 - c0,
		allocs:   m1.Mallocs - m0.Mallocs,
		heap:     m1.HeapAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
	}
}

// gcCPUSeconds reads the runtime's cumulative GC and total CPU estimates.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the resident-set high-water mark of this program, VmHWM in
// /proc/self/status. (getrusage's ru_maxrss will not do: across an exec it
// keeps the high-water mark of the process image it replaced, which under
// `go run` is the go tool's.) It is 0 where /proc has no such line.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
