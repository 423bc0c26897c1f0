package syncmgr

import (
	"testing"
	"time"

	"mixedmem/internal/dsm"
)

// TestAcquireFlushesParkedWrites: a lock request flushes the outbox before it
// goes out. Process 1 holds A, writes x and requests B, while B's holder,
// process 2, awaits x before it releases B. Parked behind the request, x would
// wait for a linger tick with every write batched — an hour here — and for
// ever with holds alone, which have no ticker.
func TestAcquireFlushesParkedWrites(t *testing.T) {
	for name, batch := range map[string]dsm.BatchConfig{
		"holds":   {},
		"batched": {Enabled: true, Linger: time.Hour},
	} {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []PropagationMode{Eager, Lazy, DemandDriven} {
				tc := newBatchedCluster(t, 3, mode, batch)
				held := make(chan struct{})
				done := make(chan struct{})
				go func() {
					tc.locks[2].WLock("B")
					close(held)
					tc.nodes[2].AwaitCausal("x", 1)
					tc.locks[2].WUnlock("B")
				}()
				go func() {
					defer close(done)
					tc.locks[1].WLock("A")
					tc.nodes[1].Write("x", 1)
					<-held
					tc.locks[1].WLock("B")
					tc.locks[1].WUnlock("B")
					tc.locks[1].WUnlock("A")
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%v: the request for B went out with x still parked: stalled", mode)
				}
			}
		})
	}
}
