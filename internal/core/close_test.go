package core

import (
	"runtime"
	"testing"
	"time"

	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// TestCloseIsCleanOnBothSubstrates runs a program that uses every kind of
// operation — a lock-protected counter, a counter object, barriers, an await
// handshake — on a 3-process System over each substrate, parks one more Await
// that can never match, and closes the system with it in flight: the parked
// Await must return, and every goroutine the system started (receive loops;
// on tcp also the listeners, dial supervisors, frame writers and connection
// readers) must be gone.
func TestCloseIsCleanOnBothSubstrates(t *testing.T) {
	const deadline = 10 * time.Second
	for _, tc := range []struct {
		name      string
		transport func(procs int) (transport.Transport, error) // nil: the default fabric
	}{
		{name: "sim"},
		{name: "tcp", transport: func(procs int) (transport.Transport, error) { return tcp.NewFleet(procs) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			// Traced, so the test can see the parked Await begin.
			cfg := Config{Procs: 3, TraceCapacity: 1024}
			if tc.transport != nil {
				tr, err := tc.transport(cfg.Procs)
				if err != nil {
					t.Fatalf("transport: %v", err)
				}
				cfg.Transport = tr
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			sys.Run(func(p *Proc) {
				p.WLock("l")
				p.Write("locked", p.ReadCausal("locked")+1)
				p.WUnlock("l")
				p.Add("hits", 1)
				p.Barrier()
				if p.ID() == 0 {
					p.Write("go", 1)
				} else {
					p.Await("go", 1)
				}
				p.Barrier()
				if got := p.ReadPRAM("hits"); got != 3 {
					t.Errorf("proc %d sees hits = %d, want 3", p.ID(), got)
				}
				p.RLock("l")
				if got := p.ReadCausal("locked"); got != 3 {
					t.Errorf("proc %d sees locked = %d, want 3", p.ID(), got)
				}
				p.RUnlock("l")
			})

			waiter := sys.Proc(1)
			recorded := waiter.Tracer().Recorded()
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				waiter.Await("never", 1)
			}()
			for end := time.Now().Add(deadline); waiter.Tracer().Recorded() == recorded; {
				if time.Now().After(end) {
					t.Fatal("the parked Await never began")
				}
				runtime.Gosched()
			}

			sys.Close()
			select {
			case <-returned:
			case <-time.After(deadline):
				t.Fatal("Close left the parked Await blocked")
			}
			for end := time.Now().Add(deadline); runtime.NumGoroutine() > baseline; {
				if time.Now().After(end) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Close, %d before the system was built:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				runtime.Gosched()
			}
		})
	}
}
