package tcp_test

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/transport/tcp"
)

// newPeersT builds an n-process distributed deployment over loopback TCP:
// one core.Peer per node, each backed by its own *Transport, exactly as n
// separate OS processes would be wired (cmd/mixednode does the same, minus
// the shared address space).
func newPeersT(t *testing.T, n int) ([]*core.Peer, []*tcp.Transport) {
	t.Helper()
	trs, err := tcp.NewLoopback(n, nil)
	if err != nil {
		t.Fatalf("NewLoopback(%d): %v", n, err)
	}
	peers := make([]*core.Peer, n)
	for i := range peers {
		p, err := core.NewPeer(core.PeerConfig{ID: i, Transport: trs[i]})
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		peers[i] = p
	}
	t.Cleanup(func() {
		// Drain outbound channels before closing so no peer is stranded
		// waiting for a final release message.
		for _, tr := range trs {
			tr.Flush(5 * time.Second)
		}
		for _, p := range peers {
			p.Close()
		}
	})
	return peers, trs
}

// TestSolveBarrierOverTCP runs the Figure 2 barrier solver (experiment E2)
// with each process on its own TCP transport. The application code is
// identical to the in-process tests; only the Transport wiring differs.
func TestSolveBarrierOverTCP(t *testing.T) {
	ls := apps.GenDiagDominant(20, 7)
	direct, err := ls.SolveDirect()
	if err != nil {
		t.Fatalf("SolveDirect: %v", err)
	}
	peers, trs := newPeersT(t, 3)
	results := make([]apps.SolveResult, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *core.Peer) {
			defer wg.Done()
			results[i] = apps.SolveBarrier(p.Proc(), ls, apps.SolveOptions{Tol: 1e-9})
		}(i, p)
	}
	wg.Wait()
	for id, res := range results {
		if !res.Converged {
			t.Fatalf("proc %d did not converge in %d iters", id, res.Iters)
		}
		if d := apps.MaxAbsDiff(res.X, direct); d > 1e-7 {
			t.Fatalf("proc %d solution differs from direct by %v", id, d)
		}
	}
	// The answer really crossed the kernel's network stack: every process
	// sent wire messages. And the channel's own counters reach the metrics
	// registry: after a flush every process has been asked for an ack and
	// holds nothing.
	for i, p := range peers {
		if s := p.NetStats(); s.MessagesSent == 0 {
			t.Fatalf("proc %d sent no messages over TCP", i)
		}
	}
	for _, tr := range trs {
		if !tr.Flush(10 * time.Second) {
			t.Fatal("Flush timed out")
		}
	}
	for i, p := range peers {
		rec := httptest.NewRecorder()
		p.Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var doc struct{ Net tcp.Diag }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("proc %d: registry JSON: %v", i, err)
		}
		if net := doc.Net; net.AcksSent == 0 || net.AcksSent != trs[i].Diag().AcksSent || net.LogBytes != 0 {
			t.Fatalf("proc %d: registry reports %d acks sent and %d log bytes held; transport says %+v",
				i, net.AcksSent, net.LogBytes, trs[i].Diag())
		}
	}
}

// TestCholeskyLocksOverTCP runs the Figure 5 lock-based sparse Cholesky
// factorization (experiment E5) across TCP processes, with connections
// killed mid-factorization to exercise replay under a real workload.
func TestCholeskyLocksOverTCP(t *testing.T) {
	m := apps.GenSparseSPD(14, 0.25, 21)
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	peers, trs := newPeersT(t, 3)
	results := make([]apps.CholeskyResult, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *core.Peer) {
			defer wg.Done()
			results[i] = apps.CholeskyLocks(p.Proc(), m, apps.SolveOptions{})
		}(i, p)
	}
	// Chaos: tear down live connections while the factorization runs; the
	// sequence/ack layer must make the drops invisible to the algorithm.
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			from := round % len(trs)
			trs[from].DropConn((from + 1) % len(trs))
		}
	}()
	wg.Wait()
	close(stop)
	chaos.Wait()
	for id, res := range results {
		if d := m.FactorError(res.L, ref); d > 1e-9 {
			t.Fatalf("proc %d factor differs from sequential by %v", id, d)
		}
	}
	var redials uint64
	for _, tr := range trs {
		redials += tr.Diag().Dials
	}
	if redials < uint64(len(trs)*(len(trs)-1)) {
		t.Fatalf("total dials %d below connection count; chaos did not run?", redials)
	}
}
