package core

import (
	"strconv"
	"sync"
	"testing"

	"mixedmem/internal/check"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/syncmgr"
)

func TestTraceRecordsMixedConsistentHistory(t *testing.T) {
	// Run a producer/consumer program on the runtime, record it, and
	// verify the checker accepts the trace.
	sys := newSys(t, Config{Procs: 2, Record: true})
	p0, p1 := sys.Proc(0), sys.Proc(1)
	p0.Write("data", 7)
	p0.Write("flag", 1)
	p1.Await("flag", 1)
	if v := p1.ReadPRAM("data"); v != 7 {
		t.Fatalf("consumer read %d, want 7", v)
	}
	p1.ReadCausal("data")

	a, err := sys.History().Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if viol := check.Mixed(a); len(viol) != 0 {
		t.Fatalf("recorded history not mixed consistent: %v", viol)
	}
}

// settle flushes every process's outbox and waits until each replica has
// received everything the others sent, so causal reads that follow observe a
// converged store. All processes must be idle.
func settle(sys *System) {
	for i := 0; i < sys.Procs(); i++ {
		sys.Proc(i).FlushUpdates()
	}
	for i := 0; i < sys.Procs(); i++ {
		min := make([]uint64, sys.Procs())
		for j := 0; j < sys.Procs(); j++ {
			if j != i {
				min[j] = sys.Proc(j).node.SentSeqs(nil)[i]
			}
		}
		sys.Proc(i).node.WaitReceived(min)
	}
}

// TestShardedApplyManyGoroutines drives many strands per process at distinct
// locations — spread across every shard of the node's location table — while
// remote applies race against local writes and lock-free reads. Run under the
// race detector this exercises the node's locking discipline (clockMu ->
// shard.mu -> outboxMu, with the location table's cellMu a leaf under any of
// them) and its insert-only location table (lock-free probes racing inserts
// and growth, the writers' and the receive loop's inserts serialized by one
// mutex); the recorded history must satisfy Definition 4 exactly as it did
// with the single-mutex node: the sharding is a performance change, not a
// semantic one.
func TestShardedApplyManyGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch dsm.BatchConfig
	}{
		{name: "unbatched"},
		{name: "batched", batch: dsm.BatchConfig{Enabled: true, MaxUpdates: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				procs        = 3
				threadsPer   = 8
				opsPerThread = 60
				// Two locations per shard of the node's 32-shard table.
				locsPer = 8
			)
			sys := newSys(t, Config{Procs: procs, Record: true, Batch: tc.batch})
			sys.Run(func(p *Proc) {
				p.Forall(threadsPer, func(th int, s ThreadOps) {
					// Each strand owns a distinct location set; sets of
					// different strands land on different shards, so the
					// apply path runs genuinely in parallel.
					locs := make([]string, locsPer)
					for k := range locs {
						locs[k] = "t" + strconv.Itoa(th+1) + "_" + strconv.Itoa(k)
					}
					for i := 0; i < opsPerThread; i++ {
						loc := locs[i%len(locs)]
						switch i % 4 {
						case 0, 1:
							s.Write(loc, int64(p.ID()*1_000_000+(th+1)*1_000+i))
						case 2:
							s.ReadPRAM(loc)
						default:
							s.ReadCausal(loc)
						}
					}
				})
			})
			settle(sys)
			for i := 0; i < procs; i++ {
				sys.Proc(i).ReadCausal("t1_0")
			}

			a, err := sys.History().Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if v := check.Mixed(a); len(v) != 0 {
				t.Fatalf("sharded runtime violated mixed consistency: %v", v[0])
			}
		})
	}
}

// TestShardedApplySingleLocationContention is the adversarial counterpart:
// every strand on every process hammers ONE location, so all traffic funnels
// through a single shard and the packed last-writer word is contended from
// every side. Verdicts must still come back clean.
func TestShardedApplySingleLocationContention(t *testing.T) {
	const (
		procs        = 3
		threadsPer   = 6
		opsPerThread = 50
	)
	sys := newSys(t, Config{Procs: procs, Record: true})
	sys.Run(func(p *Proc) {
		p.Forall(threadsPer, func(th int, s ThreadOps) {
			for i := 0; i < opsPerThread; i++ {
				switch i % 3 {
				case 0:
					s.Write("hot", int64(p.ID()*1_000_000+(th+1)*1_000+i))
				case 1:
					s.ReadPRAM("hot")
				default:
					s.ReadCausal("hot")
				}
			}
		})
	})

	a, err := sys.History().Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("contended sharded runtime violated mixed consistency: %v", v[0])
	}
}

func TestLockTraceIsEntryConsistentAndSC(t *testing.T) {
	// Record an entry-consistent program through the real lock protocol
	// and verify Corollary 1 end to end: mixed consistent, entry
	// consistent, and sequentially consistent.
	sys := newSys(t, Config{Procs: 2, Propagation: syncmgr.Lazy, Record: true})
	sys.Run(func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.WLock("lx")
			v := p.ReadCausal("x")
			p.Write("x", v+int64(1+p.ID()*100)) // distinct values
			p.WUnlock("lx")
		}
	})

	h := sys.History()
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

func TestBarrierTraceRecordsBarrierOps(t *testing.T) {
	sys := newSys(t, Config{Procs: 2, Propagation: syncmgr.Lazy, Record: true})
	sys.Run(func(p *Proc) {
		p.Write([]string{"m", "n"}[p.ID()], int64(p.ID()+1))
		p.Barrier()
		p.ReadPRAM([]string{"n", "m"}[p.ID()])
	})
	h := sys.History()
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

func TestBarrierGroupTraceOrdersOnlyMembers(t *testing.T) {
	sys := newSys(t, Config{Procs: 3, Propagation: syncmgr.Lazy, Record: true})
	members := []int{0, 1}
	var wg sync.WaitGroup
	for _, id := range members {
		p := sys.Proc(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Write("bg"+strconv.Itoa(id), int64(id+1))
			p.BarrierGroup("g", members)
			p.ReadPRAM("bg" + strconv.Itoa(1-id))
		}()
	}
	wg.Wait()
	// The outsider writes concurrently; it must not be ordered by the
	// group's barrier.
	sys.Proc(2).Write("outside", 99)

	h := sys.History()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("trace not mixed consistent: %v", v)
	}
	var outside, barrier0 = -1, -1
	for _, op := range h.Ops {
		if op.Loc == "outside" {
			outside = op.ID
		}
		if op.Kind == history.Barrier && op.Proc == 0 {
			barrier0 = op.ID
		}
	}
	if outside < 0 || barrier0 < 0 {
		t.Fatal("ops missing from trace")
	}
	if h.Ops[barrier0].BarrierGroup != "g" {
		t.Fatalf("barrier group not recorded: %+v", h.Ops[barrier0])
	}
	if a.BarrierOrder.Has(outside, barrier0) || a.BarrierOrder.Has(barrier0, outside) {
		t.Fatal("subset barrier must not order non-member operations")
	}
}
