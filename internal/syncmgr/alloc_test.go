package syncmgr

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mixedmem/internal/network"
)

// Allocation pins and ownership tests for the synchronisation rounds. Like
// the pins in internal/dsm these use testing.AllocsPerRun, which counts
// process-wide mallocs and divides by the run count in integers: the slabs a
// round draws on (one allocation per slabSize payloads or vectors) vanish
// over 10×slabSize runs, and anything paid per round reads 1 or more.
//
//   - an uncontended Lazy WLock+WUnlock cycle: 0. Request, grant and release
//     are slab elements, RelVC and Counts slab vectors, the waiter channel
//     comes back from the free list, the manager's queue is reused in place.
//   - a global Barrier round of three processes: 0. Arrivals, releases and
//     their vectors are slab elements, the round is recycled.
//
//   - the first WLock+WUnlock of a lock name: 0. Its lockState is a slab
//     element, its release vector a slab vector, its queue starts inside the
//     state; the two map entries it adds grow their maps only now and then.
//
// What may still allocate: a read epoch's first reader, and DemandDriven's
// write-set maps.

func TestLockCycleAllocFree(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy)
	lc := tc.locks[1] // not the manager's process: every message crosses the fabric
	lc.WLock("l")
	lc.WUnlock("l")
	allocs := testing.AllocsPerRun(10*slabSize, func() {
		lc.WLock("l")
		lc.WUnlock("l")
	})
	if allocs != 0 {
		t.Errorf("uncontended Lazy WLock+WUnlock: %.0f allocs per cycle, want 0", allocs)
	}
	if got := tc.nodes[1].WritesSince(0); len(got) != 0 {
		t.Errorf("Lazy lock cycles turned the write log on: %d records", len(got))
	}
}

// TestFreshLockAcquireAllocFree: the first WLock+WUnlock of a lock name the
// manager has never seen costs no allocation of its own either — the lock's
// state comes from a slab, its release vector from the manager's vector slab,
// and its queue starts in an array inside the state. What is left is the one
// map the name enters, the manager's, whose growth is amortized over the
// names.
func TestFreshLockAcquireAllocFree(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy)
	lc := tc.locks[1]
	const runs = 10 * slabSize
	names := make([]string, runs+2) // one cycle here, one AllocsPerRun warm-up, runs measured
	for i := range names {
		names[i] = fmt.Sprintf("fresh%d", i)
	}
	i := 0
	cycle := func() {
		lc.WLock(names[i])
		lc.WUnlock(names[i])
		i++
	}
	cycle()
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("first Lazy WLock+WUnlock of a fresh name: %.0f allocs, want 0", allocs)
	}
	tc.mgr.mu.Lock()
	known := len(tc.mgr.locks)
	tc.mgr.mu.Unlock()
	if known != len(names) {
		t.Errorf("manager knows %d locks, want %d fresh names", known, len(names))
	}
}

func TestBarrierRoundAllocFree(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy)
	// Processes 1 and 2 run one round each time they are told to; process 0
	// is the measured goroutine.
	var wg sync.WaitGroup
	start := make([]chan struct{}, 2)
	done := make(chan struct{})
	for i := range start {
		start[i] = make(chan struct{})
		wg.Add(1)
		go func(bc *BarrierClient, start <-chan struct{}) {
			defer wg.Done()
			for range start {
				bc.Barrier()
				done <- struct{}{}
			}
		}(tc.barriers[i+1], start[i])
	}
	round := func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		tc.barriers[0].Barrier()
		for range start {
			<-done
		}
	}
	round()
	allocs := testing.AllocsPerRun(10*slabSize, round)
	for _, ch := range start {
		close(ch)
	}
	wg.Wait()
	if allocs != 0 {
		t.Errorf("global barrier round: %.0f allocs per round, want 0", allocs)
	}
	// Under the manager's mutex: the last round's releases may have reached
	// everyone — process 0's in place — before the manager recycled it.
	tc.bmgr.mu.Lock()
	idle := len(tc.bmgr.idle)
	tc.bmgr.mu.Unlock()
	if idle != 1 {
		t.Errorf("%d idle rounds after lockstep barriers, want the one round recycled every time", idle)
	}
}

// TestManagerQueueCompactsInPlace: three writers and a reader queue up behind
// a holder. Each release admits exactly the next in arrival order, the queue
// slides down inside the array it already has, and the reader — last in —
// is granted last, in an epoch of its own.
func TestManagerQueueCompactsInPlace(t *testing.T) {
	h := newManagerHarness(t, 6, Lazy)
	h.request(1, "l", WriteMode, 1)
	if _, ok := h.grant(1); !ok {
		t.Fatal("holder not granted")
	}
	h.request(2, "l", WriteMode, 2)
	h.request(3, "l", WriteMode, 3)
	h.request(4, "l", WriteMode, 4)
	h.request(5, "l", ReadMode, 5)
	st := h.mgr.locks["l"]
	if len(st.queue) != 4 {
		t.Fatalf("queue holds %d requests, want 4", len(st.queue))
	}
	array := &st.queue[0]
	for i, next := range []int{2, 3, 4, 5} {
		h.release(next-1, "l", WriteMode)
		g, ok := h.grant(next)
		if !ok {
			t.Fatalf("client %d never granted", next)
		}
		if g.ReqID != uint64(next) || g.Epoch != i+1 {
			t.Fatalf("client %d got %+v, want request %d in epoch %d", next, g, next, i+1)
		}
		for later := next + 1; later <= 5; later++ {
			h.noGrant(later)
		}
		if want := 3 - i; len(st.queue) != want {
			t.Fatalf("after admitting client %d the queue holds %d, want %d", next, len(st.queue), want)
		}
		if len(st.queue) > 0 && (&st.queue[0] != array || st.queue[0].client != next+1) {
			t.Fatalf("after admitting client %d the queue head is %+v at %p, want client %d at %p",
				next, st.queue[0], &st.queue[0], next+1, array)
		}
	}
	// The emptied queue still owns its array: the next burst does not regrow.
	h.request(1, "l", WriteMode, 6)
	if &st.queue[0] != array {
		t.Fatal("a request after the queue drained went into a new array")
	}
}

// barrierHarness drives a BarrierManager with crafted arrivals and collects
// the releases it sends to every client: client 0's, which the manager hands
// to its own node's dispatcher in place, in own; the others' off the fabric.
type barrierHarness struct {
	t      *testing.T
	mgr    *BarrierManager
	fabric *network.Fabric
	own    chan *barRelease
}

func newBarrierHarness(t *testing.T, nodes int) *barrierHarness {
	t.Helper()
	f, err := network.New(network.Config{Nodes: nodes})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	t.Cleanup(f.Close)
	h := &barrierHarness{t: t, fabric: f, own: make(chan *barRelease, 16)}
	d := NewDispatcher(0, f)
	h.mgr = NewBarrierManager(d, nodes)
	d.Register(KindBarRelease, func(m network.Message) { h.own <- m.Payload.(*barRelease) })
	return h
}

func (h *barrierHarness) arrive(client, k int, sent ...uint64) {
	h.mgr.onArrive(network.Message{
		From: client, To: 0, Kind: KindBarArrive,
		Payload: &barArrive{K: k, Sent: sent},
	})
}

// release returns the release the manager sent to client.
func (h *barrierHarness) release(client int) *barRelease {
	h.t.Helper()
	if client == 0 {
		select {
		case rel := <-h.own:
			return rel
		default:
			h.t.Fatal("client 0 was not released")
		}
	}
	m, ok := h.fabric.Recv(client)
	if !ok {
		h.t.Fatalf("fabric closed before client %d was released", client)
	}
	rel, ok := m.Payload.(*barRelease)
	if !ok {
		h.t.Fatalf("client %d received %T, want *barRelease", client, m.Payload)
	}
	return rel
}

// TestBarRoundRecycledClean: a duplicate arrival counts once and its later
// vector wins; and the finished round goes back on the idle list with no
// vector and no count left in it, so the next barrier — which reuses it — is
// computed from its own arrivals alone.
func TestBarRoundRecycledClean(t *testing.T) {
	h := newBarrierHarness(t, 3)
	h.arrive(0, 1, 0, 4, 4)
	h.arrive(0, 1, 0, 5, 6) // duplicate: replaces, does not count twice
	h.arrive(1, 1, 1, 0, 2)
	if len(h.mgr.pending) != 1 || len(h.mgr.idle) != 0 {
		t.Fatalf("two of three arrived: %d rounds pending, %d idle", len(h.mgr.pending), len(h.mgr.idle))
	}
	round := h.mgr.pending[barKey{"", 1}]
	if round.arrived != 2 {
		t.Fatalf("arrived = %d after clients 0 (twice) and 1, want 2", round.arrived)
	}
	if len(h.own) != 0 {
		t.Fatal("client 0 released before everyone arrived")
	}
	for client := 1; client < 3; client++ {
		if h.fabric.Pending(0, client) != 0 {
			t.Fatalf("client %d released before everyone arrived", client)
		}
	}
	h.arrive(2, 1) // no counts at all: a nil vector is still an arrival
	for client, want := range [][]uint64{{0, 1, 0}, {5, 0, 0}, {6, 2, 0}} {
		if rel := h.release(client); rel.K != 1 || !reflect.DeepEqual(rel.Expected, want) {
			t.Fatalf("client %d released with %+v, want barrier 1 expecting %v", client, rel, want)
		}
	}
	if len(h.mgr.pending) != 0 || len(h.mgr.idle) != 1 || h.mgr.idle[0] != round {
		t.Fatalf("finished round not recycled: %d pending, idle %v", len(h.mgr.pending), h.mgr.idle)
	}
	if round.arrived != 0 {
		t.Fatalf("recycled round still counts %d arrivals", round.arrived)
	}
	for client, vec := range round.sent {
		if vec != nil {
			t.Fatalf("recycled round still holds client %d's vector %v", client, vec)
		}
	}

	// The next barrier reuses the round and sees none of the last one.
	h.arrive(2, 2, 3, 3, 0)
	if h.mgr.pending[barKey{"", 2}] != round {
		t.Fatal("second barrier did not reuse the idle round")
	}
	h.arrive(1, 2, 2, 0, 2)
	h.arrive(0, 2, 0, 1, 1)
	for client, want := range [][]uint64{{0, 2, 3}, {1, 0, 3}, {1, 2, 0}} {
		if rel := h.release(client); rel.K != 2 || !reflect.DeepEqual(rel.Expected, want) {
			t.Fatalf("client %d released with %+v, want barrier 2 expecting %v", client, rel, want)
		}
	}
}

// TestSentPayloadsAreNeverRewritten: the receiver of a protocol payload keeps
// the pointer and reads it again long after, while the sender goes on filling
// the same slabs. Three processes run lock cycles and barriers; taps on the
// manager process's dispatcher and on a client's keep every payload they see
// next to a deep copy taken on arrival, and re-check all of them at the end.
// Under -race a sender writing to anything it has sent is also a reported
// race against the tap's reads.
func TestSentPayloadsAreNeverRewritten(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy)
	type kept struct{ live, copy any }
	var mu sync.Mutex
	var seen []kept
	keep := func(live, copy any) {
		mu.Lock()
		seen = append(seen, kept{live, copy})
		mu.Unlock()
	}
	vec := func(v []uint64) []uint64 { return append([]uint64(nil), v...) }
	tap := func(d *Dispatcher, kind string, next func(network.Message)) {
		d.Register(kind, func(m network.Message) {
			switch p := m.Payload.(type) {
			case *lockRequest:
				c := *p
				keep(p, &c)
			case *lockRelease:
				c := *p
				c.Counts = vec(p.Counts)
				keep(p, &c)
			case *lockGrant:
				c := *p
				c.RelVC = vec(p.RelVC)
				keep(p, &c)
			case *barArrive:
				c := *p
				c.Sent = vec(p.Sent)
				keep(p, &c)
			case *barRelease:
				c := *p
				c.Expected = vec(p.Expected)
				keep(p, &c)
			}
			next(m)
		})
	}
	tap(tc.dispatchers[0], KindLockReq, tc.mgr.onRequest)
	tap(tc.dispatchers[0], KindLockRel, tc.mgr.onRelease)
	tap(tc.dispatchers[0], KindBarArrive, tc.bmgr.onArrive)
	tap(tc.dispatchers[2], KindLockGrant, tc.locks[2].onGrant)
	tap(tc.dispatchers[2], KindBarRelease, tc.barriers[2].onRelease)

	const cycles = 3 * slabSize // every slab is refilled at least twice
	var wg sync.WaitGroup
	for p := range tc.nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= cycles; i++ {
				tc.locks[p].WLock("l")
				tc.nodes[p].Write("x", int64(p*cycles+i))
				tc.locks[p].WUnlock("l")
				if i%8 == 0 {
					tc.barriers[p].Barrier()
				}
			}
		}(p)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if want := 3*cycles*2 + cycles + 3*cycles/8 + cycles/8; len(seen) != want {
		t.Fatalf("taps saw %d payloads, want %d", len(seen), want)
	}
	for i, k := range seen {
		if !reflect.DeepEqual(k.live, k.copy) {
			t.Fatalf("payload %d changed after it was received:\n now  %+v\n then %+v", i, k.live, k.copy)
		}
	}
}
