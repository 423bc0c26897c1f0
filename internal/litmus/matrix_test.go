package litmus

import (
	"testing"
	"time"

	"mixedmem/internal/bench"
	"mixedmem/internal/check"
	"mixedmem/internal/core"
	"mixedmem/internal/history"
	"mixedmem/internal/syncmgr"
)

// These tests pin the *runtime* verdict matrix: for each litmus shape the
// suite annotates, the live system at each lattice point must exhibit the
// allowed outcomes (under an adversarial delivery schedule where one is
// needed) and must never exhibit the forbidden ones — on the simulated
// fabric and on loopback TCP, with identical verdicts.

// weakLabels are the lattice points realized by the broadcast protocol;
// SC is realized by the owner protocol and tested separately.
var weakLabels = []history.Label{history.LabelSlow, history.LabelPRAM, history.LabelCausal}

// labelsFor labels locs when the lattice point needs a per-location label at
// runtime (Slow and SC); PRAM and Causal reads run on unlabeled locations.
func labelsFor(l history.Label, locs ...string) map[string]history.Label {
	if l != history.LabelSlow && l != history.LabelSC {
		return nil
	}
	m := make(map[string]history.Label, len(locs))
	for _, loc := range locs {
		m[loc] = l
	}
	return m
}

// mixedOK analyzes a recorded history and fails on any mixed-consistency
// violation.
func mixedOK(t *testing.T, h *history.History, what string) *history.Analysis {
	t.Helper()
	a, err := h.Analyze()
	if err != nil {
		t.Fatalf("%s: Analyze: %v", what, err)
	}
	if v := check.Mixed(a); len(v) != 0 {
		t.Fatalf("%s: runtime outcome flagged as inconsistent: %v", what, v)
	}
	return a
}

// substrates is the table the substrate-independent litmus programs run over:
// the program bodies are written once, against a core.System, and the row
// supplies the transport under it.
var (
	simSubstrate = bench.Substrate{}
	tcpSubstrate = bench.Substrate{TCP: true}
	substrates   = []bench.Substrate{simSubstrate, tcpSubstrate}
)

// newSystem builds cfg's system on the substrate. The caller closes it.
func newSystem(t *testing.T, sub bench.Substrate, cfg core.Config) *core.System {
	t.Helper()
	sys, err := sub.NewSystem(cfg)
	if err != nil {
		t.Fatalf("%v: NewSystem: %v", sub, err)
	}
	return sys
}

// runSBSC runs store buffering once with both locations at the SC lattice
// point and returns the two reads, plus the recorded history when record is
// set. Every access is a blocking owner round trip, so the weak outcome
// (both reads 0) is impossible on any schedule a substrate can produce.
func runSBSC(t *testing.T, sub bench.Substrate, record bool) (r0, r1 int64, h *history.History) {
	t.Helper()
	sys := newSystem(t, sub, core.Config{
		Procs: 2, Record: record, Labels: labelsFor(history.LabelSC, "x", "y"),
	})
	defer sys.Close()
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("x", 1)
			r0 = p.ReadSC("y")
		} else {
			p.Write("y", 1)
			r1 = p.ReadSC("x")
		}
	})
	return r0, r1, sys.History()
}

// TestRuntimeSBMatrixSim forces the store-buffering weak outcome at every
// weak lattice point (held cross-channels) and shows the SC point never
// exhibits it: the suite's SB row, executed.
func TestRuntimeSBMatrixSim(t *testing.T) {
	for _, l := range weakLabels {
		sys, err := core.NewSystem(core.Config{
			Procs: 2, Record: true, Labels: labelsFor(l, "x", "y"),
		})
		if err != nil {
			t.Fatalf("%v: NewSystem: %v", l, err)
		}
		_ = sys.Fabric().Hold(0, 1)
		_ = sys.Fabric().Hold(1, 0)
		var r0, r1 int64
		sys.Run(func(p *core.Proc) {
			if p.ID() == 0 {
				p.Write("x", 1)
				r0 = p.Read("y", l)
			} else {
				p.Write("y", 1)
				r1 = p.Read("x", l)
			}
		})
		_ = sys.Fabric().Release(0, 1)
		_ = sys.Fabric().Release(1, 0)
		if r0 != 0 || r1 != 0 {
			t.Fatalf("%v: held channels must force the weak outcome: r0=%d r1=%d", l, r0, r1)
		}
		a := mixedOK(t, sys.History(), "SB/"+l.String())
		// The same weak outcome must fail the SC condition: the runtime
		// exhibited a behavior only the weak lattice points admit.
		ok, _, err := check.SequentiallyConsistent(a)
		if err != nil {
			t.Fatalf("%v: SC search: %v", l, err)
		}
		if ok {
			t.Fatalf("%v: weak SB outcome should not be sequentially consistent", l)
		}
		sys.Close()
	}

	// SC lattice point: the weak outcome must never appear.
	for trial := 0; trial < 20; trial++ {
		r0, r1, h := runSBSC(t, simSubstrate, trial == 0)
		if r0 == 0 && r1 == 0 {
			t.Fatalf("trial %d: SC-labeled locations exhibited store buffering", trial)
		}
		if trial == 0 {
			mixedOK(t, h, "SB/SC")
		}
	}
}

// TestRuntimeWRCSeparationSim executes the suite's WRC row: with the x
// channel to the final reader held, PRAM reads exhibit the weak outcome
// (y seen without x) while causal reads never can — causal delivery holds y
// back until its dependency on x is satisfied.
func TestRuntimeWRCSeparationSim(t *testing.T) {
	// PRAM point: the weak outcome is reachable.
	sys, err := core.NewSystem(core.Config{Procs: 3})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	_ = sys.Fabric().Hold(0, 2)
	var yThenX int64 = -1
	sys.Run(func(p *core.Proc) {
		switch p.ID() {
		case 0:
			p.Write("x", 1)
		case 1:
			p.AwaitPRAM("x", 1)
			p.Write("y", 1)
		case 2:
			for p.ReadPRAM("y") != 1 {
				time.Sleep(time.Millisecond)
			}
			yThenX = p.ReadPRAM("x")
		}
	})
	_ = sys.Fabric().Release(0, 2)
	sys.Close()
	if yThenX != 0 {
		t.Fatalf("PRAM reader saw x=%d after y; the held channel must expose the WRC weak outcome", yThenX)
	}

	// Causal point, same adversarial schedule: once the reader observes y,
	// x's value is guaranteed — the weak outcome must never appear.
	sys, err = core.NewSystem(core.Config{Procs: 3})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	_ = sys.Fabric().Hold(0, 2)
	released := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = sys.Fabric().Release(0, 2)
		close(released)
	}()
	var causalX int64 = -1
	sys.Run(func(p *core.Proc) {
		switch p.ID() {
		case 0:
			p.Write("x", 1)
		case 1:
			p.Await("x", 1)
			p.Write("y", 1)
		case 2:
			for p.ReadCausal("y") != 1 {
				time.Sleep(time.Millisecond)
			}
			causalX = p.ReadCausal("x")
		}
	})
	<-released
	sys.Close()
	if causalX != 1 {
		t.Fatalf("causal reader saw y=1 but x=%d; causal delivery must forbid the WRC weak outcome", causalX)
	}
}

// TestRuntimeIRIWMatrixSim executes the suite's IRIW row: at every weak
// lattice point the two readers may disagree on the order of independent
// writes (forced by holding one cross-channel per reader); at the SC point
// they never can.
func TestRuntimeIRIWMatrixSim(t *testing.T) {
	spinRead := func(p *core.Proc, loc string, l history.Label) {
		for p.Read(loc, l) != 1 {
			time.Sleep(time.Millisecond)
		}
	}
	for _, l := range weakLabels {
		sys, err := core.NewSystem(core.Config{
			Procs: 4, Record: true, Labels: labelsFor(l, "x", "y"),
		})
		if err != nil {
			t.Fatalf("%v: NewSystem: %v", l, err)
		}
		_ = sys.Fabric().Hold(1, 2) // y's write delayed to reader 2
		_ = sys.Fabric().Hold(0, 3) // x's write delayed to reader 3
		// Keep the writers mutually isolated too: if writer 1 applied x
		// before writing y, y's timestamp would carry a (true, but unwanted)
		// causal dependency on x, and reader 3 could never causally apply y
		// while x is held — the shape needs independent writes.
		_ = sys.Fabric().Hold(0, 1)
		_ = sys.Fabric().Hold(1, 0)
		var r2y, r3x int64 = -1, -1
		sys.Run(func(p *core.Proc) {
			switch p.ID() {
			case 0:
				p.Write("x", 1)
			case 1:
				p.Write("y", 1)
			case 2:
				spinRead(p, "x", l)
				r2y = p.Read("y", l)
			case 3:
				spinRead(p, "y", l)
				r3x = p.Read("x", l)
			}
		})
		_ = sys.Fabric().Release(1, 2)
		_ = sys.Fabric().Release(0, 3)
		_ = sys.Fabric().Release(0, 1)
		_ = sys.Fabric().Release(1, 0)
		if r2y != 0 || r3x != 0 {
			t.Fatalf("%v: held channels must force the IRIW weak outcome: r2y=%d r3x=%d", l, r2y, r3x)
		}
		mixedOK(t, sys.History(), "IRIW/"+l.String())
		sys.Close()
	}

	// SC point: the owner serializes both locations' accesses, so the two
	// readers can never observe the writes in opposite orders.
	for trial := 0; trial < 10; trial++ {
		sys, err := core.NewSystem(core.Config{
			Procs: 4, Labels: labelsFor(history.LabelSC, "x", "y"),
		})
		if err != nil {
			t.Fatalf("SC: NewSystem: %v", err)
		}
		var r2x, r2y, r3y, r3x int64
		sys.Run(func(p *core.Proc) {
			switch p.ID() {
			case 0:
				p.Write("x", 1)
			case 1:
				p.Write("y", 1)
			case 2:
				r2x = p.ReadSC("x")
				r2y = p.ReadSC("y")
			case 3:
				r3y = p.ReadSC("y")
				r3x = p.ReadSC("x")
			}
		})
		sys.Close()
		if r2x == 1 && r2y == 0 && r3y == 1 && r3x == 0 {
			t.Fatalf("trial %d: SC-labeled locations exhibited the IRIW weak outcome", trial)
		}
	}
}

// TestRuntimeBarrierFencesSlowSim executes the suite's Barrier-MP row at the
// weakest lattice point: even slow reads must observe pre-barrier writes —
// the barrier is the one fence the slow label keeps.
func TestRuntimeBarrierFencesSlowSim(t *testing.T) {
	sys, err := core.NewSystem(core.Config{
		Procs: 2, Record: true, Labels: labelsFor(history.LabelSlow, "s"),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	var got int64 = -1
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("s", 1)
		}
		p.Barrier()
		if p.ID() == 1 {
			got = p.ReadSlow("s")
		}
	})
	if got != 1 {
		t.Fatalf("slow read after barrier = %d, want 1 (Barrier-MP must stay forbidden under slow)", got)
	}
	mixedOK(t, sys.History(), "Barrier-MP/slow")
}

// labeledOutcome is one substrate's observable verdict for the barrier-fenced
// message-passing shape at one lattice point: did the reader observe the
// pre-barrier write?
type labeledOutcome struct {
	label history.Label
	fresh bool
}

// runMPBarrier runs barrier-fenced MP at one lattice point on one substrate
// and returns the outcome plus the recorded history.
func runMPBarrier(t *testing.T, sub bench.Substrate, l history.Label) (labeledOutcome, *history.History) {
	t.Helper()
	sys := newSystem(t, sub, core.Config{
		Procs: 2, Record: true, Labels: labelsFor(l, "data"),
	})
	defer sys.Close()
	var got int64
	sys.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			p.Write("data", 42)
		}
		p.Barrier()
		if p.ID() == 1 {
			got = p.Read("data", l)
		}
	})
	return labeledOutcome{label: l, fresh: got == 42}, sys.History()
}

// TestRuntimeMatrixSimTCPAgree runs barrier-fenced message passing at all
// four lattice points on both substrates: every point must deliver the
// pre-barrier write (the barrier fences the whole lattice), the recorded
// histories must verify, and the sim and TCP verdict vectors must be
// identical.
func TestRuntimeMatrixSimTCPAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP matrix in -short mode")
	}
	outcomes := make(map[string][]labeledOutcome)
	for _, sub := range substrates {
		for _, l := range history.LatticeLabels() {
			out, h := runMPBarrier(t, sub, l)
			mixedOK(t, h, sub.String()+" MP-barrier/"+l.String())
			outcomes[sub.String()] = append(outcomes[sub.String()], out)
		}
	}
	simOut, tcpOut := outcomes["sim"], outcomes["tcp"]
	for i := range simOut {
		if !simOut[i].fresh {
			t.Errorf("sim: %v reader missed the pre-barrier write", simOut[i].label)
		}
		if simOut[i] != tcpOut[i] {
			t.Errorf("substrates disagree at %v: sim=%+v tcp=%+v",
				simOut[i].label, simOut[i], tcpOut[i])
		}
	}
}

// TestRuntimeLockChainSimTCPAgree runs the Lock-chain shape on both substrates
// under each propagation mode: three processes take turns incrementing one
// location under a write lock, and a subset barrier of two follows. Every
// increment must see its predecessor's — no lost update — whatever carries
// the request, grant and release: pointers on the fabric, the wire codecs'
// decoded copies over sockets (a demand-driven grant ships a write-set, a
// lazy one a count vector, a group arrival its member list).
func TestRuntimeLockChainSimTCPAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP lock chain in -short mode")
	}
	const procs, rounds = 3, 10
	for _, sub := range substrates {
		for _, mode := range []syncmgr.PropagationMode{syncmgr.Eager, syncmgr.Lazy, syncmgr.DemandDriven} {
			sys := newSystem(t, sub, core.Config{Procs: procs, Propagation: mode})
			finals := make([]int64, procs)
			sys.Run(func(p *core.Proc) {
				for i := 0; i < rounds; i++ {
					p.WLock("l")
					p.Write("x", p.ReadCausal("x")+1)
					p.WUnlock("l")
				}
				if p.ID() > 0 {
					p.BarrierGroup("tail", []int{1, 2})
				}
				p.Barrier()
				finals[p.ID()] = p.ReadCausal("x")
			})
			sys.Close()
			for id, got := range finals {
				if got != procs*rounds {
					t.Errorf("%v/%v: process %d reads x = %d after %d locked increments", sub, mode, id, got, procs*rounds)
				}
			}
		}
	}
}

// TestRuntimeSBSCNeverWeakTCP repeats the SC store-buffering trials over
// real sockets: the owner protocol's verdict must not depend on the
// substrate.
func TestRuntimeSBSCNeverWeakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP SC trials in -short mode")
	}
	for trial := 0; trial < 3; trial++ {
		if r0, r1, _ := runSBSC(t, tcpSubstrate, false); r0 == 0 && r1 == 0 {
			t.Fatalf("trial %d: SC over TCP exhibited store buffering", trial)
		}
	}
}
