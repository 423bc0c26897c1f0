package syncmgr

import (
	"testing"
	"time"
)

func TestBarrierGroupExchangesWithinGroup(t *testing.T) {
	tc := newTestCluster(t, 4, Lazy)
	members := []int{1, 2}
	done := make(chan int64, 2)
	for _, id := range members {
		id := id
		go func() {
			tc.nodes[id].Write("g"+string(rune('0'+id)), int64(id*10))
			tc.barriers[id].BarrierGroup("pair", members)
			other := 3 - id // 1 <-> 2
			done <- tc.nodes[id].ReadPRAM("g" + string(rune('0'+other)))
		}()
	}
	want := map[int64]bool{10: false, 20: false}
	for i := 0; i < 2; i++ {
		select {
		case v := <-done:
			want[v] = true
		case <-time.After(2 * time.Second):
			t.Fatal("group barrier never released")
		}
	}
	if !want[10] || !want[20] {
		t.Fatalf("cross reads missing: %v", want)
	}
}

func TestBarrierGroupDoesNotBlockNonMembers(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy)
	released := make(chan struct{})
	go func() {
		tc.barriers[0].BarrierGroup("duo", []int{0, 1})
		close(released)
	}()
	// Non-member 2 never arrives; only member 1 is needed.
	select {
	case <-released:
		t.Fatal("released before the second member arrived")
	case <-time.After(20 * time.Millisecond):
	}
	go tc.barriers[1].BarrierGroup("duo", []int{0, 1})
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("group barrier never released")
	}
}

func TestBarrierGroupIndependentOfGlobal(t *testing.T) {
	tc := newTestCluster(t, 2, Lazy)
	// Run a group barrier between the two, then a global one; indices must
	// not collide.
	done := make(chan struct{}, 2)
	for id := 0; id < 2; id++ {
		id := id
		go func() {
			tc.barriers[id].BarrierGroup("both", []int{0, 1})
			tc.barriers[id].Barrier()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("mixed group/global barriers deadlocked")
		}
	}
}

func TestBarrierGroupSequence(t *testing.T) {
	tc := newTestCluster(t, 3, Lazy)
	members := []int{0, 2}
	const rounds = 4
	done := make(chan bool, 2)
	for _, id := range members {
		id := id
		go func() {
			ok := true
			loc := "seq" + string(rune('0'+id))
			other := 2 - id
			for r := 1; r <= rounds; r++ {
				tc.nodes[id].Write(loc, int64(r))
				tc.barriers[id].BarrierGroup("m", members)
				if tc.nodes[id].ReadPRAM("seq"+string(rune('0'+other))) != int64(r) {
					ok = false
				}
				tc.barriers[id].BarrierGroup("m", members)
			}
			done <- ok
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("stale read inside group phase")
			}
		case <-time.After(3 * time.Second):
			t.Fatal("group barrier sequence hung")
		}
	}
}
