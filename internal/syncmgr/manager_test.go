package syncmgr

import (
	"reflect"
	"testing"
	"time"

	"mixedmem/internal/network"
)

// managerHarness drives a Manager directly with crafted protocol messages
// and observes the grants it sends over a real fabric. One persistent
// receiver per client feeds a channel, so probing for "no grant yet" does
// not swallow a later grant.
type managerHarness struct {
	t      *testing.T
	fabric *network.Fabric
	mgr    *Manager
	grants []chan *lockGrant
}

func newManagerHarness(t *testing.T, nodes int, mode PropagationMode) *managerHarness {
	t.Helper()
	f, err := network.New(network.Config{Nodes: nodes})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	t.Cleanup(f.Close)
	h := &managerHarness{
		t: t, fabric: f, mgr: NewManager(NewDispatcher(0, f), mode),
		grants: make([]chan *lockGrant, nodes),
	}
	for c := 1; c < nodes; c++ {
		c := c
		h.grants[c] = make(chan *lockGrant, 16)
		go func() {
			for {
				m, ok := f.Recv(c)
				if !ok {
					return
				}
				if g, ok := m.Payload.(*lockGrant); ok {
					h.grants[c] <- g
				}
			}
		}()
	}
	return h
}

func (h *managerHarness) request(client int, lock string, mode LockMode, reqID uint64) {
	h.mgr.onRequest(network.Message{
		From: client, To: 0, Kind: KindLockReq,
		Payload: &lockRequest{Lock: lock, Mode: mode, ReqID: reqID},
	})
}

func (h *managerHarness) release(client int, lock string, mode LockMode) {
	h.mgr.onRelease(network.Message{
		From: client, To: 0, Kind: KindLockRel,
		Payload: &lockRelease{Lock: lock, Mode: mode},
	})
}

// grant returns the next grant delivered to client, or times out.
func (h *managerHarness) grant(client int) (*lockGrant, bool) {
	h.t.Helper()
	select {
	case g := <-h.grants[client]:
		return g, true
	case <-time.After(time.Second):
		return nil, false
	}
}

// noGrant asserts nothing is delivered to client within a short window.
func (h *managerHarness) noGrant(client int) {
	h.t.Helper()
	select {
	case g := <-h.grants[client]:
		h.t.Fatalf("unexpected grant %+v", g)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestManagerGrantsFreeWriteLock(t *testing.T) {
	h := newManagerHarness(t, 3, Lazy)
	h.request(1, "l", WriteMode, 1)
	g, ok := h.grant(1)
	if !ok {
		t.Fatal("no grant")
	}
	if g.ReqID != 1 || g.Epoch != 0 {
		t.Fatalf("grant = %+v", g)
	}
}

func TestManagerQueuesSecondWriter(t *testing.T) {
	h := newManagerHarness(t, 3, Lazy)
	h.request(1, "l", WriteMode, 1)
	if _, ok := h.grant(1); !ok {
		t.Fatal("first writer not granted")
	}
	h.request(2, "l", WriteMode, 2)
	h.noGrant(2)
	h.release(1, "l", WriteMode)
	g, ok := h.grant(2)
	if !ok {
		t.Fatal("second writer never granted")
	}
	if g.Epoch != 1 {
		t.Fatalf("second write epoch = %d, want 1", g.Epoch)
	}
}

func TestManagerBatchesConsecutiveReaders(t *testing.T) {
	h := newManagerHarness(t, 4, Lazy)
	h.request(1, "l", ReadMode, 1)
	h.request(2, "l", ReadMode, 2)
	h.request(3, "l", ReadMode, 3)
	g1, ok1 := h.grant(1)
	g2, ok2 := h.grant(2)
	g3, ok3 := h.grant(3)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("readers not all granted")
	}
	if g1.Epoch != g2.Epoch || g2.Epoch != g3.Epoch {
		t.Fatalf("concurrent readers must share an epoch: %d %d %d",
			g1.Epoch, g2.Epoch, g3.Epoch)
	}
}

func TestManagerWriterWaitsBehindReaders(t *testing.T) {
	h := newManagerHarness(t, 4, Lazy)
	h.request(1, "l", ReadMode, 1)
	h.request(2, "l", ReadMode, 2)
	_, _ = h.grant(1)
	_, _ = h.grant(2)
	h.request(3, "l", WriteMode, 3)
	h.noGrant(3)
	h.release(1, "l", ReadMode)
	h.noGrant(3) // one reader still holds
	h.release(2, "l", ReadMode)
	g, ok := h.grant(3)
	if !ok {
		t.Fatal("writer never granted after readers released")
	}
	if g.Epoch != 1 {
		t.Fatalf("write epoch after read epoch 0 = %d, want 1", g.Epoch)
	}
}

func TestManagerFIFOReaderBehindWriterWaits(t *testing.T) {
	// A reader queued behind a waiting writer must not jump the queue
	// (write-preferring FIFO admission).
	h := newManagerHarness(t, 4, Lazy)
	h.request(1, "l", ReadMode, 1)
	_, _ = h.grant(1)
	h.request(2, "l", WriteMode, 2)
	h.request(3, "l", ReadMode, 3)
	h.noGrant(3)
	h.release(1, "l", ReadMode)
	if _, ok := h.grant(2); !ok {
		t.Fatal("writer not granted first")
	}
	h.noGrant(3)
	h.release(2, "l", WriteMode)
	g, ok := h.grant(3)
	if !ok {
		t.Fatal("reader never granted")
	}
	if g.Epoch != 2 {
		t.Fatalf("read epoch after write epoch = %d, want 2", g.Epoch)
	}
}

func TestManagerEpochAlternation(t *testing.T) {
	// Epochs advance: read batch 0, write 1, write 2, read batch 3.
	h := newManagerHarness(t, 3, Lazy)
	h.request(1, "l", ReadMode, 1)
	g, _ := h.grant(1)
	if g.Epoch != 0 {
		t.Fatalf("first read epoch = %d", g.Epoch)
	}
	h.release(1, "l", ReadMode)
	h.request(1, "l", WriteMode, 2)
	g, _ = h.grant(1)
	if g.Epoch != 1 {
		t.Fatalf("write epoch = %d, want 1", g.Epoch)
	}
	h.release(1, "l", WriteMode)
	h.request(2, "l", WriteMode, 3)
	g, _ = h.grant(2)
	if g.Epoch != 2 {
		t.Fatalf("second write epoch = %d, want 2", g.Epoch)
	}
	h.release(2, "l", WriteMode)
	h.request(1, "l", ReadMode, 4)
	g, _ = h.grant(1)
	if g.Epoch != 3 {
		t.Fatalf("read epoch after writes = %d, want 3", g.Epoch)
	}
}

func TestManagerLazyAccumulatesReleaseVector(t *testing.T) {
	h := newManagerHarness(t, 3, Lazy)
	h.request(1, "l", WriteMode, 1)
	if _, ok := h.grant(1); !ok {
		t.Fatal("no grant")
	}
	h.mgr.onRelease(network.Message{
		From: 1, To: 0, Kind: KindLockRel,
		Payload: &lockRelease{Lock: "l", Mode: WriteMode, Counts: []uint64{0, 5, 2}},
	})
	h.request(2, "l", WriteMode, 2)
	g, ok := h.grant(2)
	if !ok {
		t.Fatal("no grant")
	}
	if len(g.RelVC) != 3 || g.RelVC[1] != 5 || g.RelVC[2] != 2 {
		t.Fatalf("RelVC = %v, want [0 5 2]", g.RelVC)
	}
	// A second unlock with smaller counts must not regress the vector.
	h.mgr.onRelease(network.Message{
		From: 2, To: 0, Kind: KindLockRel,
		Payload: &lockRelease{Lock: "l", Mode: WriteMode, Counts: []uint64{0, 3, 7}},
	})
	h.request(1, "l", WriteMode, 3)
	g, ok = h.grant(1)
	if !ok {
		t.Fatal("no grant")
	}
	if g.RelVC[1] != 5 || g.RelVC[2] != 7 {
		t.Fatalf("RelVC after merge = %v, want max [_,5,7]", g.RelVC)
	}
}

func TestManagerDemandAccumulatesWriteSet(t *testing.T) {
	h := newManagerHarness(t, 3, DemandDriven)
	h.request(1, "l", WriteMode, 1)
	if _, ok := h.grant(1); !ok {
		t.Fatal("no grant")
	}
	h.mgr.onRelease(network.Message{
		From: 1, To: 0, Kind: KindLockRel,
		Payload: &lockRelease{
			Lock: "l", Mode: WriteMode,
			WriteSet: []writeStamp{{Loc: "x", From: 1, Seq: 4}},
		},
	})
	h.request(2, "l", WriteMode, 2)
	g, ok := h.grant(2)
	if !ok {
		t.Fatal("no grant")
	}
	if len(g.WriteSet) != 1 || g.WriteSet[0] != (writeStamp{Loc: "x", From: 1, Seq: 4}) {
		t.Fatalf("WriteSet = %+v", g.WriteSet)
	}
	// The next release merges into a new sorted set: its own stamps win, and
	// the grant already sent keeps what it was sent with.
	h.mgr.onRelease(network.Message{
		From: 2, To: 0, Kind: KindLockRel,
		Payload: &lockRelease{
			Lock: "l", Mode: WriteMode,
			WriteSet: []writeStamp{{Loc: "a", From: 2, Seq: 1}, {Loc: "x", From: 2, Seq: 2}, {Loc: "z", From: 2, Seq: 3}},
		},
	})
	h.request(1, "l", WriteMode, 3)
	g2, ok := h.grant(1)
	if !ok {
		t.Fatal("no grant")
	}
	want := []writeStamp{{Loc: "a", From: 2, Seq: 1}, {Loc: "x", From: 2, Seq: 2}, {Loc: "z", From: 2, Seq: 3}}
	if !reflect.DeepEqual(g2.WriteSet, want) {
		t.Fatalf("merged WriteSet = %+v, want %+v", g2.WriteSet, want)
	}
	if len(g.WriteSet) != 1 || g.WriteSet[0] != (writeStamp{Loc: "x", From: 1, Seq: 4}) {
		t.Fatalf("the first grant's WriteSet changed to %+v", g.WriteSet)
	}
}

func TestManagerIgnoresMalformedPayloads(t *testing.T) {
	h := newManagerHarness(t, 2, Lazy)
	// Must not panic or grant anything.
	h.mgr.onRequest(network.Message{Kind: KindLockReq, Payload: "garbage"})
	h.mgr.onRelease(network.Message{Kind: KindLockRel, Payload: 42})
	h.noGrant(1)
}

func TestManagerReleaseByNonHolderIsSafe(t *testing.T) {
	h := newManagerHarness(t, 3, Lazy)
	h.request(1, "l", WriteMode, 1)
	if _, ok := h.grant(1); !ok {
		t.Fatal("no grant")
	}
	// Client 2 releases a lock it does not hold: the holder must keep it.
	h.release(2, "l", WriteMode)
	h.request(2, "l", WriteMode, 2)
	h.noGrant(2)
	h.release(1, "l", WriteMode)
	if _, ok := h.grant(2); !ok {
		t.Fatal("real release did not admit the waiter")
	}
}
