package syncmgr

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mixedmem/internal/check"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// testCluster bundles nodes with their lock/barrier clients; the managers
// are hosted on node 0.
type testCluster struct {
	fabric      *network.Fabric
	nodes       []*dsm.Node
	dispatchers []*Dispatcher
	mgr         *Manager
	bmgr        *BarrierManager
	locks       []*Client
	barriers    []*BarrierClient
}

func newTestCluster(t *testing.T, n int, mode PropagationMode, trace *history.Builder) *testCluster {
	t.Helper()
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	dispatchers := make([]*Dispatcher, n)
	tc := &testCluster{fabric: f, dispatchers: dispatchers}
	for i := 0; i < n; i++ {
		d := NewDispatcher(i, f)
		dispatchers[i] = d
		node, err := dsm.NewNode(dsm.Config{
			ID: i, N: n, Transport: f, Trace: trace, Handler: d.Handle,
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
		tc.nodes = append(tc.nodes, node)
	}
	tc.mgr = NewManager(dispatchers[0], mode)
	tc.bmgr = NewBarrierManager(dispatchers[0], n)
	for i := 0; i < n; i++ {
		tc.locks = append(tc.locks, NewClient(tc.nodes[i], dispatchers[i], 0, mode))
		tc.barriers = append(tc.barriers, NewBarrierClient(tc.nodes[i], dispatchers[i], 0))
	}
	t.Cleanup(func() {
		f.Close()
		for _, nd := range tc.nodes {
			nd.Close()
		}
	})
	return tc
}

func TestWriteLockMutualExclusion(t *testing.T) {
	for _, mode := range []PropagationMode{Eager, Lazy, DemandDriven} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 3, mode, nil)
			var inCS atomic.Int32
			var maxSeen atomic.Int32
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						tc.locks[p].WLock("l")
						cur := inCS.Add(1)
						if cur > maxSeen.Load() {
							maxSeen.Store(cur)
						}
						time.Sleep(100 * time.Microsecond)
						inCS.Add(-1)
						tc.locks[p].WUnlock("l")
					}
				}()
			}
			wg.Wait()
			if maxSeen.Load() != 1 {
				t.Fatalf("max concurrent write holders = %d, want 1", maxSeen.Load())
			}
		})
	}
}

func TestLockProtectedCounterNoLostUpdates(t *testing.T) {
	// Read-modify-write under a write lock must not lose updates in any
	// propagation mode: the mode's visibility rule guarantees the next
	// holder reads the previous holder's value.
	for _, mode := range []PropagationMode{Eager, Lazy, DemandDriven} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 3, mode, nil)
			const perProc = 15
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perProc; i++ {
						tc.locks[p].WLock("cnt")
						v := tc.nodes[p].ReadCausal("x")
						tc.nodes[p].Write("x", v+1)
						tc.locks[p].WUnlock("cnt")
					}
				}()
			}
			wg.Wait()
			// Acquire once more to pull the final value locally.
			tc.locks[0].WLock("cnt")
			got := tc.nodes[0].ReadCausal("x")
			tc.locks[0].WUnlock("cnt")
			if got != 3*perProc {
				t.Fatalf("final counter = %d, want %d", got, 3*perProc)
			}
		})
	}
}

// TestManagerLocalContention: the managers' own process, whose requests,
// releases and arrivals are served in place on its own goroutine, contends
// for one lock with two remote processes and meets them at barriers, in every
// mode. The write lock stays exclusive, no increment made under it is lost,
// every process sees the others' pre-barrier writes after each barrier, and
// the final barrier leaves every process reading the whole count.
func TestManagerLocalContention(t *testing.T) {
	for _, mode := range []PropagationMode{Eager, Lazy, DemandDriven} {
		t.Run(mode.String(), func(t *testing.T) {
			const rounds = 12
			tc := newTestCluster(t, 3, mode, nil)
			phase := []string{"phase0", "phase1", "phase2"}
			var inCS atomic.Int32
			var wg sync.WaitGroup
			for p := range tc.nodes {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					nd, lc, bc := tc.nodes[p], tc.locks[p], tc.barriers[p]
					for k := 1; k <= rounds; k++ {
						lc.WLock("l")
						if held := inCS.Add(1); held != 1 {
							t.Errorf("proc %d holds the write lock with %d holders", p, held)
						}
						nd.Write("ctr", nd.ReadCausal("ctr")+1)
						inCS.Add(-1)
						lc.WUnlock("l")
						nd.Write(phase[p], int64(k))
						bc.Barrier()
						for q, loc := range phase {
							if got := nd.ReadPRAM(loc); got < int64(k) {
								t.Errorf("proc %d after barrier %d reads proc %d's phase as %d", p, k, q, got)
							}
						}
					}
					bc.Barrier()
					if got := nd.ReadCausal("ctr"); got != 3*rounds {
						t.Errorf("proc %d reads the counter as %d after the last barrier, want %d", p, got, 3*rounds)
					}
				}(p)
			}
			wg.Wait()
		})
	}
}

func TestReadLocksShared(t *testing.T) {
	tc := newTestCluster(t, 2, Lazy, nil)
	tc.locks[0].RLock("l")
	done := make(chan struct{})
	go func() {
		tc.locks[1].RLock("l")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second read lock blocked by first")
	}
	tc.locks[0].RUnlock("l")
	tc.locks[1].RUnlock("l")
}

func TestWriterExcludedByReader(t *testing.T) {
	tc := newTestCluster(t, 2, Lazy, nil)
	tc.locks[0].RLock("l")
	acquired := make(chan struct{})
	go func() {
		tc.locks[1].WLock("l")
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("write lock granted while read lock held")
	case <-time.After(30 * time.Millisecond):
	}
	tc.locks[0].RUnlock("l")
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("write lock never granted after read unlock")
	}
	tc.locks[1].WUnlock("l")
}

func TestReaderExcludedByWriter(t *testing.T) {
	tc := newTestCluster(t, 2, Lazy, nil)
	tc.locks[0].WLock("l")
	acquired := make(chan struct{})
	go func() {
		tc.locks[1].RLock("l")
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("read lock granted while write lock held")
	case <-time.After(30 * time.Millisecond):
	}
	tc.locks[0].WUnlock("l")
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("read lock never granted after write unlock")
	}
	tc.locks[1].RUnlock("l")
}

func TestEagerVisibilityAtUnlock(t *testing.T) {
	// Eager mode: when WUnlock returns, every replica has applied the
	// critical section's updates — no acquire needed to observe them.
	tc := newTestCluster(t, 3, Eager, nil)
	tc.locks[0].WLock("l")
	tc.nodes[0].Write("x", 42)
	tc.locks[0].WUnlock("l")
	for i := 1; i < 3; i++ {
		if got := tc.nodes[i].ReadPRAM("x"); got != 42 {
			t.Fatalf("node %d PRAM view = %d immediately after eager unlock", i, got)
		}
		if got := tc.nodes[i].ReadCausal("x"); got != 42 {
			t.Fatalf("node %d causal view = %d immediately after eager unlock", i, got)
		}
	}
}

func TestLazyVisibilityAtAcquire(t *testing.T) {
	tc := newTestCluster(t, 2, Lazy, nil)
	tc.locks[0].WLock("l")
	tc.nodes[0].Write("x", 7)
	tc.locks[0].WUnlock("l")
	tc.locks[1].WLock("l")
	if got := tc.nodes[1].ReadCausal("x"); got != 7 {
		t.Fatalf("causal read after lazy acquire = %d, want 7", got)
	}
	if got := tc.nodes[1].ReadPRAM("x"); got != 7 {
		t.Fatalf("PRAM read after lazy acquire = %d, want 7", got)
	}
	tc.locks[1].WUnlock("l")
}

func TestLazyVisibilityTransitive(t *testing.T) {
	// Lock chain p0 -> p1 -> p2: p2 must see p0's writes even though p1
	// wrote nothing (the release vector accumulates).
	tc := newTestCluster(t, 3, Lazy, nil)
	tc.locks[0].WLock("l")
	tc.nodes[0].Write("x", 5)
	tc.locks[0].WUnlock("l")
	tc.locks[1].WLock("l")
	tc.locks[1].WUnlock("l")
	tc.locks[2].WLock("l")
	if got := tc.nodes[2].ReadCausal("x"); got != 5 {
		t.Fatalf("transitive visibility failed: x = %d", got)
	}
	tc.locks[2].WUnlock("l")
}

func TestDemandDrivenBlocksOnlyInvalidatedReads(t *testing.T) {
	tc := newTestCluster(t, 2, DemandDriven, nil)
	tc.locks[0].WLock("l")
	tc.nodes[0].Write("x", 9)
	tc.locks[0].WUnlock("l")
	tc.locks[1].WLock("l")
	// Read of the written location must return the new value (blocking if
	// the update has not yet arrived).
	if got := tc.nodes[1].ReadCausal("x"); got != 9 {
		t.Fatalf("demand-driven read = %d, want 9", got)
	}
	// A location outside the write-set is readable without any stall.
	_ = tc.nodes[1].ReadPRAM("unrelated")
	tc.locks[1].WUnlock("l")
}

func TestLockTraceIsEntryConsistentAndSC(t *testing.T) {
	// Record an entry-consistent program through the real lock protocol
	// and verify Corollary 1 end to end: mixed consistent, entry
	// consistent, and sequentially consistent.
	trace := history.NewBuilder(2)
	tc := newTestCluster(t, 2, Lazy, trace)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				tc.locks[p].WLock("lx")
				v := tc.nodes[p].ReadCausal("x")
				tc.nodes[p].Write("x", v+int64(1+p*100)) // distinct values
				tc.locks[p].WUnlock("lx")
			}
		}()
	}
	wg.Wait()

	h := trace.History()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("trace not mixed consistent: %v", v)
	}
	if v := check.EntryConsistent(h, map[string]string{"x": "lx"}); len(v) != 0 {
		t.Fatalf("trace not entry consistent: %v", v)
	}
	ok, _, err := check.SequentiallyConsistent(a)
	if err != nil {
		t.Fatalf("SC check: %v", err)
	}
	if !ok {
		t.Fatal("Corollary 1 violated: entry-consistent causal execution not SC")
	}
}

func TestBarrierPhaseExchange(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy, nil)
	var wg sync.WaitGroup
	results := make([][]int64, 3)
	for p := 0; p < 3; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			loc := []string{"a", "b", "c"}[p]
			tc.nodes[p].Write(loc, int64(p+1))
			tc.barriers[p].Barrier()
			// After the barrier every pre-barrier write must be visible in
			// both views with plain PRAM reads.
			results[p] = []int64{
				tc.nodes[p].ReadPRAM("a"),
				tc.nodes[p].ReadPRAM("b"),
				tc.nodes[p].ReadPRAM("c"),
				tc.nodes[p].ReadCausal("a"),
			}
		}()
	}
	wg.Wait()
	for p, r := range results {
		if r[0] != 1 || r[1] != 2 || r[2] != 3 || r[3] != 1 {
			t.Errorf("proc %d saw %v after barrier", p, r)
		}
	}
}

func TestBarrierMultiplePhases(t *testing.T) {
	tc := newTestCluster(t, 2, Lazy, nil)
	const phases = 5
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for p := 0; p < 2; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			loc := []string{"u", "v"}[p]
			other := []string{"v", "u"}[p]
			for ph := 1; ph <= phases; ph++ {
				tc.nodes[p].Write(loc, int64(ph*10+p))
				tc.barriers[p].Barrier()
				if got := tc.nodes[p].ReadPRAM(other); got != int64(ph*10+1-p) {
					errs <- "stale cross read"
				}
				tc.barriers[p].Barrier()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := tc.barriers[0].Stats(); s.Barriers != 2*phases {
		t.Errorf("barrier count = %d, want %d", s.Barriers, 2*phases)
	}
}

// TestBarrierWaitsForSettledUpdates: a barrier returns only once every
// update the release vector covers has settled, not merely arrived. Member
// 1's pre-barrier write b depends on non-member 0's write a, whose channel to
// member 2 is held, so at member 2 b arrives but parks. Member 2's barrier
// (managed by member 1, so its release is not held too) must not return
// before the hold lifts and b settles: the causal read after it sees b, and
// member 2's trace records the barrier's one wait as a wait for settled
// updates, none for received ones.
func TestBarrierWaitsForSettledUpdates(t *testing.T) {
	const n = 3
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	tracer := obs.NewTracer(2, 1<<10)
	nodes := make([]*dsm.Node, n)
	dispatchers := make([]*Dispatcher, n)
	for i := range nodes {
		dispatchers[i] = NewDispatcher(i, f)
		cfg := dsm.Config{ID: i, N: n, Transport: f, Handler: dispatchers[i].Handle}
		if i == 2 {
			cfg.Tracer = tracer
		}
		if nodes[i], err = dsm.NewNode(cfg); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	NewBarrierManager(dispatchers[1], n)
	member1 := NewBarrierClient(nodes[1], dispatchers[1], 1)
	member2 := NewBarrierClient(nodes[2], dispatchers[2], 1)
	handled := make(chan struct{})
	dispatchers[2].Register(KindBarRelease, func(m network.Message) {
		member2.onRelease(m)
		close(handled)
	})

	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("a", 1)
	nodes[1].AwaitCausal("a", 1)
	nodes[1].Write("b", 1)
	seen := make(chan int64, 1)
	go func() {
		member2.BarrierGroup("pair", []int{1, 2})
		seen <- nodes[2].ReadCausal("b")
	}()
	member1.BarrierGroup("pair", []int{1, 2})
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("member 2 never got its barrier release")
	}
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-seen:
		if got != 1 {
			t.Fatalf("causal b = %d after the barrier, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member 2's barrier never returned")
	}
	settledWaits := 0
	for _, e := range tracer.Snapshot().Events {
		if e.Type != obs.EvWaitCounts {
			continue
		}
		if e.B == 0 {
			t.Fatal("the barrier waited for received updates, which need not have settled")
		}
		settledWaits++
	}
	if settledWaits != 1 {
		t.Fatalf("%d waits for settled updates, want the barrier's one", settledWaits)
	}
}

func TestBarrierTraceRecordsBarrierOps(t *testing.T) {
	trace := history.NewBuilder(2)
	tc := newTestCluster(t, 2, Lazy, trace)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc.nodes[p].Write([]string{"m", "n"}[p], int64(p+1))
			tc.barriers[p].Barrier()
			tc.nodes[p].ReadPRAM([]string{"n", "m"}[p])
		}()
	}
	wg.Wait()
	h := trace.History()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("trace not mixed consistent: %v", v)
	}
	if v := check.PRAMConsistent(h); len(v) != 0 {
		t.Fatalf("trace not PRAM consistent: %v", v)
	}
	ok, _, err := check.SequentiallyConsistent(a)
	if err != nil || !ok {
		t.Fatalf("Corollary 2 violated: ok=%v err=%v", ok, err)
	}
}

func TestClientStats(t *testing.T) {
	tc := newTestCluster(t, 2, Eager, nil)
	tc.locks[0].WLock("l")
	tc.locks[0].WUnlock("l")
	s := tc.locks[0].Stats()
	if s.Acquires != 1 {
		t.Errorf("acquires = %d, want 1", s.Acquires)
	}
}

func TestDispatcherRouting(t *testing.T) {
	d := NewDispatcher(0, nil)
	var got atomic.Int32
	d.Register("a", func(network.Message) { got.Store(1) })
	d.Register("b", func(network.Message) { got.Store(2) })
	d.Handle(network.Message{Kind: "b"})
	if got.Load() != 2 {
		t.Errorf("routed to %d, want 2", got.Load())
	}
	d.Handle(network.Message{Kind: "unknown"}) // must not panic
}

func TestPropagationModeString(t *testing.T) {
	for m, want := range map[PropagationMode]string{
		Eager: "eager", Lazy: "lazy", DemandDriven: "demand-driven",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestWriteLogBoundedAcrossCriticalSections(t *testing.T) {
	// The lock client trims the node's write log after each unlock, so the
	// write-set of an early critical section never lingers: a later unlock
	// carries only its own writes.
	tc := newTestCluster(t, 2, DemandDriven, nil)
	tc.locks[0].WLock("l")
	for i := 0; i < 10; i++ {
		tc.nodes[0].Write("early"+string(rune('0'+i)), int64(i+1))
	}
	tc.locks[0].WUnlock("l")

	tc.locks[0].WLock("l")
	tc.nodes[0].Write("late", 99)
	tc.locks[0].WUnlock("l")

	// The node's log now holds nothing before the current mark.
	if got := tc.nodes[0].WritesSince(0); len(got) != 0 {
		t.Fatalf("write log not trimmed: %d records linger", len(got))
	}
	// And the protocol still works: the next holder sees the late write.
	tc.locks[1].WLock("l")
	if got := tc.nodes[1].ReadCausal("late"); got != 99 {
		t.Fatalf("late = %d, want 99", got)
	}
	tc.locks[1].WUnlock("l")
}

// TestWriteLogIsDemandDrivenOnly: the node's write log exists to delimit
// demand-driven write-sets. A critical section under Eager or Lazy must not
// turn it on — once on, it records every later write of the node for nobody.
func TestWriteLogIsDemandDrivenOnly(t *testing.T) {
	for _, mode := range []PropagationMode{Eager, Lazy} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 2, mode, nil)
			tc.locks[0].WLock("l")
			tc.nodes[0].Write("inside", 1)
			tc.locks[0].WUnlock("l")
			tc.nodes[0].Write("after", 2)
			if got := tc.nodes[0].WritesSince(0); len(got) != 0 {
				t.Fatalf("write log holds %v after a %s critical section, want nothing", got, mode)
			}
			// The section's write still reaches the next holder.
			tc.locks[1].WLock("l")
			if got := tc.nodes[1].ReadCausal("inside"); got != 1 {
				t.Fatalf("inside = %d at the next holder, want 1", got)
			}
			tc.locks[1].WUnlock("l")
		})
	}
}

// TestCloseWriteSetKeepsLastWriteSorted: a critical section's write-set names
// each location it wrote once, with the stamp of its last write there, sorted
// by location — the order the codec requires, built with no sort at encode
// time.
func TestCloseWriteSetKeepsLastWriteSorted(t *testing.T) {
	tc := newTestCluster(t, 2, DemandDriven, nil)
	c, nd := tc.locks[1], tc.nodes[1]
	c.WLock("l")
	for _, loc := range []string{"m", "b", "m", "z", "b", "a"} {
		nd.Write(loc, 1)
	}
	ws := c.closeWriteSet("l")
	want := []writeStamp{{Loc: "a", From: 1, Seq: 6}, {Loc: "b", From: 1, Seq: 5}, {Loc: "m", From: 1, Seq: 3}, {Loc: "z", From: 1, Seq: 4}}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("write-set %+v, want %+v", ws, want)
	}
	if ws := c.closeWriteSet("l"); ws != nil {
		t.Fatalf("a section with no writes closed with write-set %+v, want nil", ws)
	}
}
