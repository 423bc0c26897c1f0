package core

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"mixedmem/internal/check"
	"mixedmem/internal/history"
	"mixedmem/internal/syncmgr"
)

// shapeProcs is the process count of the shape program.
const shapeProcs = 3

// shapeProgram is one fixed program touching every recorded operation: writes
// (one to an SC-labeled location), reads at all four labels, W and R locks, a
// global barrier, a causal and a PRAM await, a group barrier, a Forall whose
// strands read, write and await, and a closing barrier. Values are distinct
// per location, as recorded programs must be.
func shapeProgram(p *Proc) {
	id := p.ID()
	own := "x" + strconv.Itoa(id)
	p.Write(own, int64(10+id))
	p.Write("s", int64(100+id))
	p.ReadPRAM(own)
	p.ReadCausal(own)
	p.ReadSlow(own)
	p.ReadSC("s")
	p.WLock("l")
	p.Write("c", int64(1000+id))
	p.WUnlock("l")
	p.RLock("l")
	p.ReadCausal("c")
	p.RUnlock("l")
	p.Barrier()
	next, prev := (id+1)%shapeProcs, (id+2)%shapeProcs
	p.Await("x"+strconv.Itoa(next), int64(10+next))
	p.AwaitPRAM("x"+strconv.Itoa(prev), int64(10+prev))
	if id <= 1 {
		p.BarrierGroup("g", []int{0, 1})
	}
	p.Forall(2, func(i int, th ThreadOps) {
		loc := "f" + strconv.Itoa(id) + strconv.Itoa(i)
		v := int64(2000 + 10*id + i)
		th.Write(loc, v)
		th.ReadPRAM(loc)
		th.ReadCausal(loc)
		th.ReadSlow(loc)
		th.ReadSC("s")
		th.Await(loc, v)
		th.AwaitPRAM(loc, v)
	})
	p.Write("y"+strconv.Itoa(id), int64(30+id))
	p.Barrier()
}

// shapeOp is the part of a recorded operation the program determines: the
// schedule decides read values and lock epochs, nothing else.
type shapeOp struct {
	Kind    history.OpKind
	Loc     string
	Value   int64 // writes and awaits only
	Label   history.Label
	Lock    string
	Barrier int
	Group   string
}

func (o shapeOp) String() string {
	return fmt.Sprintf("%v(%s=%d %v lock=%q bar=%d/%q)", o.Kind, o.Loc, o.Value, o.Label, o.Lock, o.Barrier, o.Group)
}

// wantShape returns the strands shapeProgram records on process id, keyed by
// thread: the main strand's operations and each Forall strand's.
func wantShape(id int, causal history.Label) map[int][]shapeOp {
	own := "x" + strconv.Itoa(id)
	next, prev := (id+1)%shapeProcs, (id+2)%shapeProcs
	main := []shapeOp{
		{Kind: history.Write, Loc: own, Value: int64(10 + id)},
		{Kind: history.Write, Loc: "s", Value: int64(100 + id)},
		{Kind: history.Read, Loc: own, Label: history.LabelPRAM},
		{Kind: history.Read, Loc: own, Label: causal},
		{Kind: history.Read, Loc: own, Label: history.LabelSlow},
		{Kind: history.Read, Loc: "s", Label: history.LabelSC},
		{Kind: history.WLock, Lock: "l"},
		{Kind: history.Write, Loc: "c", Value: int64(1000 + id)},
		{Kind: history.WUnlock, Lock: "l"},
		{Kind: history.RLock, Lock: "l"},
		{Kind: history.Read, Loc: "c", Label: causal},
		{Kind: history.RUnlock, Lock: "l"},
		{Kind: history.Barrier, Barrier: 1},
		{Kind: history.Await, Loc: "x" + strconv.Itoa(next), Value: int64(10 + next)},
		{Kind: history.Await, Loc: "x" + strconv.Itoa(prev), Value: int64(10 + prev)},
	}
	if id <= 1 {
		main = append(main, shapeOp{Kind: history.Barrier, Barrier: 1, Group: "g"})
	}
	main = append(main,
		shapeOp{Kind: history.Write, Loc: "y" + strconv.Itoa(id), Value: int64(30 + id)},
		shapeOp{Kind: history.Barrier, Barrier: 2},
	)
	strands := map[int][]shapeOp{0: main}
	for i := 0; i < 2; i++ {
		loc := "f" + strconv.Itoa(id) + strconv.Itoa(i)
		v := int64(2000 + 10*id + i)
		strands[1+i] = []shapeOp{
			{Kind: history.Write, Loc: loc, Value: v},
			{Kind: history.Read, Loc: loc, Label: history.LabelPRAM},
			{Kind: history.Read, Loc: loc, Label: causal},
			{Kind: history.Read, Loc: loc, Label: history.LabelSlow},
			{Kind: history.Read, Loc: "s", Label: history.LabelSC},
			{Kind: history.Await, Loc: loc, Value: v},
			{Kind: history.Await, Loc: loc, Value: v},
		}
	}
	return strands
}

// TestRecordedHistoryShape pins what a System records for one fixed program
// under every propagation mode, and under PRAMOnly, where a causal read is
// served and recorded as the PRAM read it degrades to: each strand's
// operations in order with their thread IDs, the fork and join edges around
// the Forall, lock epochs that pair each unlock with its lock, and barrier
// indices and groups.
func TestRecordedHistoryShape(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     syncmgr.PropagationMode
		pramOnly bool
	}{
		{name: "eager", mode: syncmgr.Eager},
		{name: "lazy", mode: syncmgr.Lazy},
		{name: "demand-driven", mode: syncmgr.DemandDriven},
		{name: "pram-only", mode: syncmgr.Lazy, pramOnly: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSys(t, Config{
				Procs: shapeProcs, Record: true, Propagation: tc.mode, PRAMOnly: tc.pramOnly,
				Labels: map[string]history.Label{"s": history.LabelSC},
			})
			sys.Run(shapeProgram)
			h := sys.History()
			a, err := h.Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			causal := history.LabelCausal
			if tc.pramOnly {
				causal = history.LabelPRAM
			}

			// strands[proc][thread] lists op IDs in strand order.
			strands := make([]map[int][]int, shapeProcs)
			for i := range strands {
				strands[i] = map[int][]int{}
			}
			for _, op := range h.Ops {
				s := strands[op.Proc][op.Thread]
				if op.Seq != len(s) {
					t.Fatalf("op %v has seq %d, want %d", op, op.Seq, len(s))
				}
				strands[op.Proc][op.Thread] = append(s, op.ID)
			}
			for id := 0; id < shapeProcs; id++ {
				want := wantShape(id, causal)
				got := map[int][]shapeOp{}
				for th, ids := range strands[id] {
					for _, opID := range ids {
						op := h.Ops[opID]
						so := shapeOp{Kind: op.Kind, Loc: op.Loc, Label: op.Label,
							Lock: op.Lock, Barrier: op.BarrierID, Group: op.BarrierGroup}
						if op.Kind == history.Write || op.Kind == history.Await {
							so.Value = op.Value
						}
						got[th] = append(got[th], so)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("proc %d recorded\n%v\nwant\n%v", id, got, want)
					continue
				}

				// Each unlock carries its lock's epoch.
				ops := func(th int) []history.Op {
					var out []history.Op
					for _, opID := range strands[id][th] {
						out = append(out, h.Ops[opID])
					}
					return out
				}
				main := ops(0)
				if main[6].LockEpoch != main[8].LockEpoch || main[9].LockEpoch != main[11].LockEpoch {
					t.Errorf("proc %d: lock epochs %d/%d and %d/%d do not pair", id,
						main[6].LockEpoch, main[8].LockEpoch, main[9].LockEpoch, main[11].LockEpoch)
				}

				// Fork and join: the main strand's op before the Forall
				// precedes each strand's first op, each strand's last op
				// precedes the write after it, and the strands are unordered.
				fork, join := main[len(main)-3].ID, main[len(main)-2].ID
				s1, s2 := ops(1), ops(2)
				for _, s := range [][]history.Op{s1, s2} {
					if !a.PO.Has(fork, s[0].ID) {
						t.Errorf("proc %d: no fork edge %v -> %v", id, main[len(main)-3], s[0])
					}
					if !a.PO.Has(s[len(s)-1].ID, join) {
						t.Errorf("proc %d: no join edge %v -> %v", id, s[len(s)-1], main[len(main)-2])
					}
				}
				if a.PO.Has(s1[0].ID, s2[len(s2)-1].ID) || a.PO.Has(s2[0].ID, s1[len(s1)-1].ID) {
					t.Errorf("proc %d: sibling strands are ordered", id)
				}
			}
			if v := check.Mixed(a); len(v) != 0 {
				t.Errorf("recorded history not mixed consistent: %v", v[0])
			}
		})
	}
}
