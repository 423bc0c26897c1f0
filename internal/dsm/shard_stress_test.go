package dsm

import (
	"strconv"
	"sync"
	"testing"

	"mixedmem/internal/check"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
)

// TestShardedApplyManyGoroutines drives many goroutines per node at
// distinct locations — spread across every shard of the sharded value map —
// while remote applies race against local writes and lock-free reads. Run
// under the race detector this exercises the shard locking discipline
// (clockMu -> shard.mu -> outboxMu) and the insert-only value tables
// (lock-free probes racing inserts and growth); the recorded history must satisfy Definition 4 exactly as it did with the
// single-mutex node: the sharding is a performance change, not a semantic
// one.
func TestShardedApplyManyGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch BatchConfig
	}{
		{name: "unbatched"},
		{name: "batched", batch: BatchConfig{Enabled: true, MaxUpdates: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				procs        = 3
				threadsPer   = 8
				opsPerThread = 60
				locsPer      = 2 * shardCount / threadsPer
			)
			trace := history.NewBuilder(procs)
			f, err := network.New(network.Config{Nodes: procs})
			if err != nil {
				t.Fatalf("network.New: %v", err)
			}
			nodes := make([]*Node, procs)
			for i := range nodes {
				nodes[i], err = NewNode(Config{ID: i, N: procs, Transport: f, Trace: trace, Batch: tc.batch})
				if err != nil {
					t.Fatalf("NewNode(%d): %v", i, err)
				}
			}
			defer func() {
				f.Close()
				for _, nd := range nodes {
					nd.Close()
				}
			}()

			var wg sync.WaitGroup
			for _, nd := range nodes {
				nd := nd
				ids := make([]int, threadsPer)
				for th := 0; th < threadsPer; th++ {
					ids[th] = th + 1
				}
				trace.Fork(nd.ID(), 0, ids)
				for th := 0; th < threadsPer; th++ {
					h := nd.Thread(th + 1)
					wg.Add(1)
					go func() {
						defer wg.Done()
						// Each thread owns a distinct location set; sets of
						// different threads land on different shards, so the
						// apply path runs genuinely in parallel.
						locs := make([]string, locsPer)
						for k := range locs {
							locs[k] = "t" + strconv.Itoa(h.ThreadID()) + "_" + strconv.Itoa(k)
						}
						for i := 0; i < opsPerThread; i++ {
							loc := locs[i%len(locs)]
							switch i % 4 {
							case 0, 1:
								h.Write(loc, int64(h.ID()*1_000_000+h.ThreadID()*1_000+i))
							case 2:
								h.ReadPRAM(loc)
							default:
								h.ReadCausal(loc)
							}
						}
					}()
				}
			}
			wg.Wait()
			for _, nd := range nodes {
				nd.FlushUpdates()
			}
			// Let every replica apply everything so the final causal reads
			// below observe a converged store.
			for _, nd := range nodes {
				min := make([]uint64, procs)
				for _, src := range nodes {
					if src.ID() != nd.ID() {
						min[src.ID()] = src.SentCounts(nil)[nd.ID()]
					}
				}
				nd.WaitReceived(min)
			}
			for _, nd := range nodes {
				trace.Join(nd.ID(), 0, func() []int {
					ids := make([]int, threadsPer)
					for th := range ids {
						ids[th] = th + 1
					}
					return ids
				}())
				nd.ReadCausal("t1_0")
			}

			a, err := trace.History().Analyze()
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
// every goroutine on every node hammers ONE location, so all traffic funnels
// through a single shard and the packed last-writer word is contended from
// every side. Verdicts must still come back clean.
func TestShardedApplySingleLocationContention(t *testing.T) {
	const (
		procs        = 3
		threadsPer   = 6
		opsPerThread = 50
	)
	trace := history.NewBuilder(procs)
	f, err := network.New(network.Config{Nodes: procs})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	nodes := make([]*Node, procs)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: procs, Transport: f, Trace: trace})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	ids := make([]int, threadsPer)
	for th := range ids {
		ids[th] = th + 1
	}
	var wg sync.WaitGroup
	for _, nd := range nodes {
		nd := nd
		trace.Fork(nd.ID(), 0, ids)
		for th := 0; th < threadsPer; th++ {
			h := nd.Thread(th + 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsPerThread; i++ {
					switch i % 3 {
					case 0:
						h.Write("hot", int64(h.ID()*1_000_000+h.ThreadID()*1_000+i))
					case 1:
						h.ReadPRAM("hot")
					default:
						h.ReadCausal("hot")
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, nd := range nodes {
		trace.Join(nd.ID(), 0, ids)
	}

	a, err := trace.History().Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("contended sharded runtime violated mixed consistency: %v", v[0])
	}
}
