package loctab

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestZeroTableAndInsertOnce(t *testing.T) {
	var tab Table[int]
	if tab.Get(Hash("x"), "x") != nil {
		t.Fatal("empty table found a key")
	}
	tab.Range(func(string, *int) { t.Fatal("empty table ranged an entry") })
	v, inserted := tab.Insert(Hash("x"), "x", 7)
	if !inserted || *v != 7 {
		t.Fatalf("first insert: inserted=%v value=%d", inserted, *v)
	}
	again, inserted := tab.Insert(Hash("x"), "x", 8)
	if inserted || again != v {
		t.Fatalf("second insert: inserted=%v, pointer changed=%v", inserted, again != v)
	}
	if got := tab.Get(Hash("x"), "x"); got != v || *got != 7 {
		t.Fatalf("Get returned %p (%v), want %p", got, got, v)
	}
}

// TestCollidingHashes drives the probe sequence directly: every key is given
// the same hash, so the table degenerates into one linear chain that must
// still resolve each key to its own value across several growths.
func TestCollidingHashes(t *testing.T) {
	var tab Table[int]
	const n = 100
	ptrs := make([]*int, n)
	for i := 0; i < n; i++ {
		ptrs[i], _ = tab.Insert(42, fmt.Sprint("k", i), i)
	}
	for i := 0; i < n; i++ {
		if got := tab.Get(42, fmt.Sprint("k", i)); got != ptrs[i] || *got != i {
			t.Fatalf("key %d resolved to %p, want %p", i, got, ptrs[i])
		}
	}
	if tab.Get(42, "absent") != nil {
		t.Fatal("absent key found in a full collision chain")
	}
}

func TestRangeVisitsEveryEntryOnce(t *testing.T) {
	var tab Table[int]
	const n = 1000
	for i := 0; i < n; i++ {
		k := fmt.Sprint("loc/", i)
		tab.Insert(Hash(k), k, i)
	}
	seen := make(map[string]int, n)
	tab.Range(func(k string, v *int) { seen[k] = *v })
	if len(seen) != n {
		t.Fatalf("ranged %d entries, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		if seen[fmt.Sprint("loc/", i)] != i {
			t.Fatalf("entry %d ranged with value %d", i, seen[fmt.Sprint("loc/", i)])
		}
	}
}

// TestConcurrentInsertLookup is the publication/growth/stability proof (run
// with -race): one writer inserts 1<<16 fresh names — sixteen-odd doublings —
// while readers keep looking up every name published so far. A published name
// must always be found, at the same value pointer it was inserted with.
func TestConcurrentInsertLookup(t *testing.T) {
	const (
		total   = 1 << 16
		readers = 4
	)
	names := make([]string, total)
	hashes := make([]uint32, total)
	for i := range names {
		names[i] = fmt.Sprint("row/", i%251, "/col/", i)
		hashes[i] = Hash(names[i])
	}
	var (
		tab       Table[uint64]
		mu        sync.Mutex // the owner's mutex
		ptrs      = make([]atomic.Pointer[uint64], total)
		published atomic.Int64
		wg        sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for sweep := 0; ; sweep++ {
				n := int(published.Load())
				// Sweep a strided sample each round and the full prefix on the
				// last, so readers keep pace with the writer.
				step := 1
				if n < total {
					step = 1 + (sweep+r)%7
				}
				for i := 0; i < n; i += step {
					got := tab.Get(hashes[i], names[i])
					if got == nil {
						t.Errorf("published name %q not found", names[i])
						return
					}
					if want := ptrs[i].Load(); got != want {
						t.Errorf("name %q moved: %p, inserted at %p", names[i], got, want)
						return
					}
					if *got != uint64(i) {
						t.Errorf("name %q holds %d, want %d", names[i], *got, i)
						return
					}
				}
				if n == total {
					return
				}
			}
		}(r)
	}
	for i := 0; i < total; i++ {
		mu.Lock()
		v, inserted := tab.Insert(hashes[i], names[i], uint64(i))
		mu.Unlock()
		if !inserted {
			t.Fatalf("fresh name %q reported present", names[i])
		}
		ptrs[i].Store(v)
		published.Store(int64(i + 1))
	}
	wg.Wait()
}

func TestGetAllocFree(t *testing.T) {
	var tab Table[int]
	for i := 0; i < 100; i++ {
		k := fmt.Sprint("k", i)
		tab.Insert(Hash(k), k, i)
	}
	h := Hash("k50")
	if n := testing.AllocsPerRun(500, func() {
		if tab.Get(h, "k50") == nil {
			t.Fatal("warm key missing")
		}
	}); n != 0 {
		t.Fatalf("Get allocates %.1f/op, want 0", n)
	}
}

// TestHashBytesMatchesHash: a name hashes the same as bytes and as a string.
func TestHashBytesMatchesHash(t *testing.T) {
	for _, name := range []string{"", "x", "sess/12/k3", "L[17][4]", "vis/2/0/f311"} {
		if got, want := HashBytes([]byte(name)), Hash(name); got != want {
			t.Errorf("HashBytes(%q) = %#x, Hash gives %#x", name, got, want)
		}
	}
}

// TestInsertAllocatesPerDoublingNotPerKey: entries come out of a chunk
// allocated at growth, so 4096 inserts cost three allocations per doubling —
// the slot array, its published header, the chunk — and none per key. The
// values are watched across every growth: a *V handed out before one is the
// same pointer, with the same value, after all of them.
func TestInsertAllocatesPerDoublingNotPerKey(t *testing.T) {
	const n = 4096
	keys := make([]string, n)
	hashes := make([]uint32, n)
	for i := range keys {
		keys[i] = fmt.Sprint("loc/", i)
		hashes[i] = Hash(keys[i])
	}
	ptrs := make([]*int, n)
	var tab Table[int]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keys {
		ptrs[i], _ = tab.Insert(hashes[i], keys[i], i)
	}
	runtime.ReadMemStats(&after)

	slots := len(*tab.slots.Load())
	doublings := 0
	for s := initialSlots; s <= slots; s *= 2 {
		doublings++
	}
	if slots != 2*n || doublings != 11 || Doublings(n) != doublings {
		t.Fatalf("%d inserts left %d slots after %d doublings (Doublings says %d), want %d after 11",
			n, slots, doublings, Doublings(n), 2*n)
	}
	if got := after.Mallocs - before.Mallocs; got > uint64(3*doublings) {
		t.Errorf("%d inserts made %d allocations, want at most %d (three per doubling)", n, got, 3*doublings)
	}
	if len(tab.free) != 0 {
		t.Errorf("a table at its load factor has %d unused chunk entries, want none", len(tab.free))
	}
	for i := range keys {
		if got := tab.Get(hashes[i], keys[i]); got != ptrs[i] || *got != i {
			t.Fatalf("key %d: Get returned %p (%d), want the pointer Insert returned, %p (%d)", i, got, *got, ptrs[i], i)
		}
	}
}
