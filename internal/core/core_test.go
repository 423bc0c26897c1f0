package core

import (
	"strconv"
	"sync"
	"testing"

	"mixedmem/internal/check"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
)

func newSys(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{Procs: 0}); err == nil {
		t.Error("zero procs must error")
	}
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := NewPeer(PeerConfig{ID: 0, Transport: f, ManagerProc: 5}); err == nil {
		t.Error("out-of-range manager must error")
	}
}

func TestProducerConsumer(t *testing.T) {
	sys := newSys(t, Config{Procs: 2})
	var got int64
	sys.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Write("data", 42)
			p.Write("ready", 1)
		} else {
			p.Await("ready", 1)
			got = p.ReadPRAM("data")
		}
	})
	if got != 42 {
		t.Fatalf("consumer read %d, want 42", got)
	}
}

func TestBarrierExchange(t *testing.T) {
	sys := newSys(t, Config{Procs: 4})
	sums := make([]int64, 4)
	sys.Run(func(p *Proc) {
		p.Write("v"+strconv.Itoa(p.ID()), int64(p.ID()+1))
		p.Barrier()
		var sum int64
		for q := 0; q < p.N(); q++ {
			sum += p.ReadPRAM("v" + strconv.Itoa(q))
		}
		sums[p.ID()] = sum
	})
	for i, s := range sums {
		if s != 10 {
			t.Errorf("proc %d sum = %d, want 10", i, s)
		}
	}
}

func TestLockedSharedCounter(t *testing.T) {
	sys := newSys(t, Config{Procs: 3, Propagation: syncmgr.Eager})
	const iters = 10
	sys.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.WLock("l")
			v := p.ReadCausal("x")
			p.Write("x", v+1)
			p.WUnlock("l")
		}
	})
	p0 := sys.Proc(0)
	p0.WLock("l")
	got := p0.ReadCausal("x")
	p0.WUnlock("l")
	if got != 3*iters {
		t.Fatalf("counter = %d, want %d", got, 3*iters)
	}
}

func TestCounterObjects(t *testing.T) {
	sys := newSys(t, Config{Procs: 3})
	sys.Run(func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Add("count", -1)
		}
		p.Barrier()
		if got := p.ReadPRAM("count"); got != -60 {
			t.Errorf("proc %d sees count = %d, want -60", p.ID(), got)
		}
	})
}

func TestReadDispatchesOnLabel(t *testing.T) {
	sys := newSys(t, Config{Procs: 1})
	p := sys.Proc(0)
	p.Write("x", 5)
	if p.Read("x", history.LabelPRAM) != 5 || p.Read("x", history.LabelCausal) != 5 {
		t.Error("Read label dispatch broken")
	}
}

func TestFloatHelpers(t *testing.T) {
	sys := newSys(t, Config{Procs: 1})
	p := sys.Proc(0)
	WriteFloat(p, "f", 3.25)
	if got := ReadPRAMFloat(p, "f"); got != 3.25 {
		t.Errorf("PRAM float = %v", got)
	}
	if got := ReadCausalFloat(p, "f"); got != 3.25 {
		t.Errorf("causal float = %v", got)
	}
	WriteFloat(p, "neg", -0.5)
	if got := ReadPRAMFloat(p, "neg"); got != -0.5 {
		t.Errorf("negative float = %v", got)
	}
}

func TestStatsAccessors(t *testing.T) {
	sys := newSys(t, Config{Procs: 2})
	p := sys.Proc(0)
	p.Write("x", 1)
	p.ReadPRAM("x")
	p.WLock("l")
	p.WUnlock("l")
	sys.Run(func(p *Proc) { p.Barrier() })
	if s := p.MemStats(); s.Writes != 1 || s.PRAMReads != 1 {
		t.Errorf("mem stats = %+v", s)
	}
	if s := p.LockStats(); s.Acquires != 1 {
		t.Errorf("lock stats = %+v", s)
	}
	if s := p.BarrierStats(); s.Barriers != 1 {
		t.Errorf("barrier stats = %+v", s)
	}
	if ns := sys.NetStats(); ns.MessagesSent == 0 {
		t.Error("no messages accounted")
	}
}

func TestHistoryNilWithoutRecord(t *testing.T) {
	sys := newSys(t, Config{Procs: 1})
	if sys.History() != nil {
		t.Error("History must be nil without Record")
	}
}

func TestRecordedProducerConsumerIsMixedConsistent(t *testing.T) {
	sys := newSys(t, Config{Procs: 2, Record: true})
	sys.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Write("data", 7)
			p.Write("ready", 1)
		} else {
			p.Await("ready", 1)
			p.ReadPRAM("data")
			p.ReadCausal("data")
		}
	})
	a, err := sys.History().Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("not mixed consistent: %v", v)
	}
}

// TestCorollary1Property is the E9 property test for Corollary 1: random
// entry-consistent programs with causal reads always produce sequentially
// consistent histories.
func TestCorollary1Property(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(0); seed < 12; seed++ {
		h, locks, err := RunRandomEntryConsistent(RandomEntryConsistentConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := h.Analyze()
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		if v := check.Mixed(a); len(v) != 0 {
			t.Fatalf("seed %d: not mixed consistent: %v", seed, v)
		}
		if v := check.EntryConsistent(h, locks); len(v) != 0 {
			t.Fatalf("seed %d: not entry consistent: %v", seed, v)
		}
		ok, _, err := check.SequentiallyConsistent(a)
		if err != nil {
			t.Fatalf("seed %d: SC search: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: Corollary 1 violated (history not SC)", seed)
		}
	}
}

// TestCorollary2Property is the E9 property test for Corollary 2: random
// PRAM-consistent phased programs with PRAM reads always produce
// sequentially consistent histories.
func TestCorollary2Property(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(0); seed < 12; seed++ {
		h, err := RunRandomPhased(RandomPhasedConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := h.Analyze()
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		if v := check.Mixed(a); len(v) != 0 {
			t.Fatalf("seed %d: not mixed consistent: %v", seed, v)
		}
		if v := check.PRAMConsistent(h); len(v) != 0 {
			t.Fatalf("seed %d: not PRAM consistent: %v", seed, v)
		}
		ok, _, err := check.SequentiallyConsistent(a)
		if err != nil {
			t.Fatalf("seed %d: SC search: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: Corollary 2 violated (history not SC)", seed)
		}
	}
}

func TestRunExecutesEveryProc(t *testing.T) {
	sys := newSys(t, Config{Procs: 5})
	var mu sync.Mutex
	seen := make(map[int]bool)
	sys.Run(func(p *Proc) {
		mu.Lock()
		seen[p.ID()] = true
		mu.Unlock()
	})
	if len(seen) != 5 {
		t.Errorf("Run covered %d procs, want 5", len(seen))
	}
}

func TestPropagationModesEndToEnd(t *testing.T) {
	for _, mode := range []syncmgr.PropagationMode{syncmgr.Eager, syncmgr.Lazy, syncmgr.DemandDriven} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			sys := newSys(t, Config{Procs: 2, Propagation: mode})
			sys.Run(func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.WLock("l")
					v := p.ReadCausal("s")
					p.Write("s", v+1)
					p.WUnlock("l")
				}
			})
			p := sys.Proc(0)
			p.WLock("l")
			got := p.ReadCausal("s")
			p.WUnlock("l")
			if got != 10 {
				t.Fatalf("final = %d, want 10", got)
			}
		})
	}
}
