package core_test

import (
	"sync"
	"testing"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// selfSendSpy passes every message on to the transport it wraps and keeps
// count, per kind, of the ones a node addressed to itself and of the ones
// that crossed to another node.
type selfSendSpy struct {
	transport.Transport

	mu      sync.Mutex
	self    map[string]int
	crossed map[string]int
}

func (s *selfSendSpy) Send(m transport.Message) error {
	s.mu.Lock()
	if m.To == m.From {
		s.self[m.Kind]++
	} else {
		s.crossed[m.Kind]++
	}
	s.mu.Unlock()
	return s.Transport.Send(m)
}

// selfSendProgram has every process take the write lock to bump a counter,
// read it back in a shared read epoch, and meet the others at a global
// barrier and at two subset barriers, one the manager's process belongs to
// and one it does not; at the end every process must see every bump.
func selfSendProgram(t *testing.T, p *core.Proc) {
	const rounds = 6
	for k := 0; k < rounds; k++ {
		p.WLock("l")
		p.Write("ctr", p.ReadCausal("ctr")+1)
		p.WUnlock("l")
		p.RLock("l")
		_ = p.ReadCausal("ctr")
		p.RUnlock("l")
		p.Barrier()
		if p.ID() <= 1 {
			p.BarrierGroup("with-manager", []int{0, 1})
		}
		if p.ID() >= 1 {
			p.BarrierGroup("without-manager", []int{1, 2})
		}
	}
	p.Barrier()
	if got, want := p.ReadCausal("ctr"), int64(p.N()*rounds); got != want {
		t.Errorf("proc %d reads the counter as %d after the last barrier, want %d", p.ID(), got, want)
	}
}

// TestNoProcessMessagesItself: the lock and barrier managers live on process
// 0, and its own requests, releases, arrivals, grants and barrier releases
// are served in place, so no message a System sends — protocol or memory —
// is addressed to its sender. It runs every propagation mode, read epochs,
// global and subset barriers, a lock-based Cholesky factorization and a
// barrier-based Jacobi solve over the simulated fabric and over loopback tcp,
// and checks that the protocol messages process 0 does need still cross.
func TestNoProcessMessagesItself(t *testing.T) {
	const procs = 3
	substrates := []struct {
		name string
		new  func() (transport.Transport, error)
	}{
		{"sim", func() (transport.Transport, error) { return network.New(network.Config{Nodes: procs}) }},
		{"tcp", func() (transport.Transport, error) { return tcp.NewFleet(procs) }},
	}
	spd := apps.GenSparseSPD(10, 0.3, 5)
	ref, err := spd.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	ls := apps.GenDiagDominant(8, 3)
	run := func(t *testing.T, newTr func() (transport.Transport, error), mode syncmgr.PropagationMode, body func(*core.Proc)) *selfSendSpy {
		t.Helper()
		tr, err := newTr()
		if err != nil {
			t.Fatalf("transport: %v", err)
		}
		spy := &selfSendSpy{Transport: tr, self: map[string]int{}, crossed: map[string]int{}}
		sys, err := core.NewSystem(core.Config{Procs: procs, Transport: spy, Propagation: mode})
		if err != nil {
			tr.Close()
			t.Fatalf("NewSystem: %v", err)
		}
		sys.Run(body)
		sys.Close()
		spy.mu.Lock()
		defer spy.mu.Unlock()
		for kind, n := range spy.self {
			t.Errorf("%d %s messages sent by a process to itself", n, kind)
		}
		return spy
	}
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			for _, mode := range []syncmgr.PropagationMode{syncmgr.Eager, syncmgr.Lazy, syncmgr.DemandDriven} {
				t.Run(mode.String(), func(t *testing.T) {
					spy := run(t, sub.new, mode, func(p *core.Proc) { selfSendProgram(t, p) })
					for _, kind := range []string{syncmgr.KindLockReq, syncmgr.KindLockGrant, syncmgr.KindLockRel,
						syncmgr.KindBarArrive, syncmgr.KindBarRelease} {
						if spy.crossed[kind] == 0 {
							t.Errorf("no %s message crossed between processes", kind)
						}
					}
					run(t, sub.new, mode, func(p *core.Proc) {
						if d := spd.FactorError(apps.CholeskyLocks(p, spd, apps.SolveOptions{}).L, ref); d > 1e-9 {
							t.Errorf("proc %d: Cholesky factor differs from sequential by %v", p.ID(), d)
						}
					})
				})
			}
			t.Run("jacobi", func(t *testing.T) {
				run(t, sub.new, 0, func(p *core.Proc) {
					if res := apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-9}); !res.Converged {
						t.Errorf("proc %d: Jacobi did not converge in %d iterations", p.ID(), res.Iters)
					}
				})
			})
		})
	}
}
