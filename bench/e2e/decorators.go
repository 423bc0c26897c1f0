package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/transport"
)

// The two decorators of the traced pass. Both belong to the harness and
// both are transparent: they forward every call unchanged and only read
// the clock around it. procSpy sits between the application and core;
// wireSpy sits between core and its transport. The untraced measurement
// uses neither.

// Operation categories the procSpy accounts by.
const (
	opWrite = iota // Write, Add, AddFloat
	opRead         // ReadPRAM, ReadCausal, ReadSlow, ReadSC
	opAwait        // Await, AwaitPRAM
	opBarrier
	opLock   // RLock, WLock
	opUnlock // RUnlock, WUnlock
	opForall // the parent strand parked in Forall
	numOps
)

// opClock is one strand's account: calls and time inside core per
// category, plus the strand's own wall time.
type opClock struct {
	calls [numOps]int64
	ns    [numOps]int64
	// strandNS is wall time between the strand's start and end.
	strandNS int64
}

func (c *opClock) add(o *opClock) {
	for i := range c.calls {
		c.calls[i] += o.calls[i]
		c.ns[i] += o.ns[i]
	}
	c.strandNS += o.strandNS
}

// inCoreNS is the time the strand spent inside core calls.
func (c *opClock) inCoreNS() int64 {
	var t int64
	for _, ns := range c.ns {
		t += ns
	}
	return t
}

func (c *opClock) charge(op int, start time.Time) {
	c.calls[op]++
	c.ns[op] += int64(time.Since(start))
}

// strandSpy decorates the memory operations of one strand. A strand is a
// single goroutine, so its clock needs no synchronisation.
type strandSpy struct {
	t     core.ThreadOps
	clock opClock
}

var _ core.ThreadOps = (*strandSpy)(nil)

func (s *strandSpy) Write(loc string, v int64) {
	defer s.clock.charge(opWrite, time.Now())
	s.t.Write(loc, v)
}

func (s *strandSpy) Add(loc string, d int64) {
	defer s.clock.charge(opWrite, time.Now())
	s.t.Add(loc, d)
}

func (s *strandSpy) AddFloat(loc string, d float64) {
	defer s.clock.charge(opWrite, time.Now())
	s.t.AddFloat(loc, d)
}

func (s *strandSpy) ReadPRAM(loc string) int64 {
	defer s.clock.charge(opRead, time.Now())
	return s.t.ReadPRAM(loc)
}

func (s *strandSpy) ReadCausal(loc string) int64 {
	defer s.clock.charge(opRead, time.Now())
	return s.t.ReadCausal(loc)
}

func (s *strandSpy) ReadSlow(loc string) int64 {
	defer s.clock.charge(opRead, time.Now())
	return s.t.ReadSlow(loc)
}

func (s *strandSpy) ReadSC(loc string) int64 {
	defer s.clock.charge(opRead, time.Now())
	return s.t.ReadSC(loc)
}

func (s *strandSpy) Await(loc string, v int64) {
	defer s.clock.charge(opAwait, time.Now())
	s.t.Await(loc, v)
}

func (s *strandSpy) AwaitPRAM(loc string, v int64) {
	defer s.clock.charge(opAwait, time.Now())
	s.t.AwaitPRAM(loc, v)
}

// procSpy decorates one process: the main strand's memory operations
// through the embedded strandSpy, plus synchronisation and Forall.
type procSpy struct {
	strandSpy
	p *core.Proc

	mu sync.Mutex
	// joined accumulates the clocks of finished Forall strands.
	joined opClock
}

var _ core.Process = (*procSpy)(nil)

func newProcSpy(p *core.Proc) *procSpy {
	return &procSpy{strandSpy: strandSpy{t: p}, p: p}
}

func (s *procSpy) ID() int { return s.p.ID() }
func (s *procSpy) N() int  { return s.p.N() }

func (s *procSpy) Barrier() {
	defer s.clock.charge(opBarrier, time.Now())
	s.p.Barrier()
}

func (s *procSpy) RLock(name string) {
	defer s.clock.charge(opLock, time.Now())
	s.p.RLock(name)
}

func (s *procSpy) WLock(name string) {
	defer s.clock.charge(opLock, time.Now())
	s.p.WLock(name)
}

func (s *procSpy) RUnlock(name string) {
	defer s.clock.charge(opUnlock, time.Now())
	s.p.RUnlock(name)
}

func (s *procSpy) WUnlock(name string) {
	defer s.clock.charge(opUnlock, time.Now())
	s.p.WUnlock(name)
}

// Forall hands every body a strandSpy of its own and folds the strand's
// clock into the process when the body returns.
func (s *procSpy) Forall(count int, body func(i int, t core.ThreadOps)) {
	defer s.clock.charge(opForall, time.Now())
	s.p.Forall(count, func(i int, t core.ThreadOps) {
		st := &strandSpy{t: t}
		start := time.Now()
		body(i, st)
		st.clock.strandNS = int64(time.Since(start))
		s.mu.Lock()
		s.joined.add(&st.clock)
		s.mu.Unlock()
	})
}

// total is the process's account over all its strands. Call it after the
// application returned; mainNS is the main strand's wall time.
func (s *procSpy) total(mainNS int64) opClock {
	t := s.clock
	t.strandNS = mainNS
	t.add(&s.joined)
	return t
}

// wireLog is the state the wireSpies of one fleet share: the per-pair FIFO
// of send stamps that lets a receive be matched to its send (the transport
// contract is reliable FIFO per ordered pair, so the n-th receive on a pair
// is the n-th send), and the harness's own wire counters.
type wireLog struct {
	n int
	// wireCodec tells that the transport underneath encodes payloads (tcp);
	// the sim fabric passes them by reference, so it has no codec cost.
	wireCodec bool
	pairs     []stampQueue // from*n + to

	sends, recvs atomic.Int64
	sendNS       atomic.Int64
	inflightMax  atomic.Int64

	mu      sync.Mutex
	transit []float64 // µs, one per matched receive
	// codec holds the payloads captured for the codec cell, already
	// encoded: senders recycle batch payloads after Send.
	codec []wireSample
	// busyNS and idleNS split every receive loop's time between handling a
	// message (Recv return to the next Recv call) and waiting inside Recv.
	busyNS, idleNS int64
}

type wireSample struct {
	kind string
	data []byte
}

// codecSampleEvery is the capture period of the codec cell.
const codecSampleEvery = 64

type stampQueue struct {
	mu     sync.Mutex
	stamps []int64
	head   int
}

func (q *stampQueue) push(t int64) {
	q.mu.Lock()
	q.stamps = append(q.stamps, t)
	q.mu.Unlock()
}

// pop returns the oldest stamp, or false when the queue is empty (a
// message sent before the log was reset).
func (q *stampQueue) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.stamps) {
		return 0, false
	}
	t := q.stamps[q.head]
	q.head++
	if q.head == len(q.stamps) {
		q.stamps, q.head = q.stamps[:0], 0
	}
	return t, true
}

func newWireLog(n int) *wireLog {
	return &wireLog{n: n, pairs: make([]stampQueue, n*n)}
}

// stamp records a send on (from, to) and reports whether its payload is
// due for the codec cell.
func (l *wireLog) stamp(from, to int, now int64) (sample bool) {
	l.pairs[from*l.n+to].push(now)
	sent := l.sends.Add(1)
	if in := sent - l.recvs.Load(); in > l.inflightMax.Load() {
		l.inflightMax.Store(in) // racy max: only ever read as an approximate peak
	}
	return sent%codecSampleEvery == 0
}

func (l *wireLog) sample(kind string, payload any) {
	if payload == nil || !l.wireCodec {
		return
	}
	data, err := transport.EncodePayload(nil, kind, payload)
	if err != nil {
		return // kinds without a wire codec (sim-only payloads) have no codec cost
	}
	l.mu.Lock()
	l.codec = append(l.codec, wireSample{kind, data})
	l.mu.Unlock()
}

// wireSpy decorates one transport.
type wireSpy struct {
	transport.Transport
	log *wireLog
	// lastReturn[node] is when Recv(node) last returned; 0 before the
	// first. Each node's receive loop is one goroutine.
	lastReturn []int64
}

func (l *wireLog) spyOn(t transport.Transport) transport.Transport {
	return &wireSpy{Transport: t, log: l, lastReturn: make([]int64, l.n)}
}

func (w *wireSpy) Send(m transport.Message) error {
	start := time.Now()
	// Stamp before the send: the receiver may pop as soon as Send delivers.
	if w.log.stamp(m.From, m.To, start.UnixNano()) {
		w.log.sample(m.Kind, m.Payload)
		start = time.Now() // sampling is not send time
	}
	err := w.Transport.Send(m)
	w.log.sendNS.Add(int64(time.Since(start)))
	return err
}

func (w *wireSpy) Broadcast(from int, kind string, payload any, size int) error {
	start := time.Now()
	sampled := false
	for to := 0; to < w.log.n; to++ {
		if to == from {
			continue
		}
		if w.log.stamp(from, to, start.UnixNano()) {
			sampled = true
		}
	}
	if sampled {
		w.log.sample(kind, payload)
		start = time.Now() // sampling is not send time
	}
	err := w.Transport.Broadcast(from, kind, payload, size)
	w.log.sendNS.Add(int64(time.Since(start)))
	return err
}

func (w *wireSpy) Recv(node int) (transport.Message, bool) {
	called := time.Now().UnixNano()
	m, ok := w.Transport.Recv(node)
	now := time.Now().UnixNano()
	l := w.log
	l.mu.Lock()
	if last := w.lastReturn[node]; last != 0 {
		l.busyNS += called - last
	}
	l.idleNS += now - called
	if ok {
		if sent, matched := l.pairs[m.From*l.n+node].pop(); matched {
			l.transit = append(l.transit, float64(now-sent)/1e3)
		}
	}
	l.mu.Unlock()
	w.lastReturn[node] = now
	if ok {
		l.recvs.Add(1)
	}
	return m, ok
}
