package advise_test

import (
	"testing"

	"mixedmem/internal/analysis/advise"
	"mixedmem/internal/analysis/framework"
	"mixedmem/internal/history"
)

func adviceOf(t *testing.T, dir string) *advise.Result {
	t.Helper()
	pkg, err := framework.LoadDir(dir, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return advise.Packages([]*framework.Package{pkg})
}

func labels(res *advise.Result) map[string]history.Label {
	out := make(map[string]history.Label)
	for _, a := range res.Advice {
		out[a.Loc] = a.Label
	}
	return out
}

func TestAdviseBasic(t *testing.T) {
	res := adviceOf(t, "../testdata/src/advise")
	got := labels(res)
	want := map[string]history.Label{
		"x":   history.LabelPRAM,   // phase-disciplined pipeline; locks elsewhere reject slow
		"tab": history.LabelCausal, // entry-disciplined under "m"
		"y":   history.LabelSC,     // written twice in one phase
		"ro":  history.LabelPRAM,   // read-only
		"n":   history.LabelPRAM,   // counter increments are not writes
		"tv":  history.LabelSC,     // Forall thread strands
	}
	if len(got) != len(want) {
		t.Errorf("advice covers %d locations, want %d: %v", len(got), len(want), got)
	}
	for loc, lbl := range want {
		if got[loc] != lbl {
			t.Errorf("advice for %q = %v, want %v", loc, got[loc], lbl)
		}
	}
	if res.LockOf["tab"] != "m" {
		t.Errorf("LockOf[tab] = %q, want %q", res.LockOf["tab"], "m")
	}
	if len(res.LockOf) != 1 {
		t.Errorf("LockOf = %v, want only tab", res.LockOf)
	}
	if pl, _ := res.ProgramLabel(); pl != history.LabelSC {
		t.Errorf("ProgramLabel = %v, want LabelSC (strongest requirement wins)", pl)
	}
	for _, a := range res.Advice {
		if a.Rationale == "" {
			t.Errorf("advice for %q has no rationale", a.Loc)
		}
	}
}

func TestAdviseSlow(t *testing.T) {
	res := adviceOf(t, "../testdata/src/advise_slow")
	got := labels(res)
	want := map[string]history.Label{
		"left":  history.LabelSlow,
		"right": history.LabelSlow,
		"acc":   history.LabelSlow,
	}
	if len(got) != len(want) {
		t.Errorf("advice covers %d locations, want %d: %v", len(got), len(want), got)
	}
	for loc, lbl := range want {
		if got[loc] != lbl {
			t.Errorf("advice for %q = %v, want %v", loc, got[loc], lbl)
		}
	}
	if pl, _ := res.ProgramLabel(); pl != history.LabelSlow {
		t.Errorf("ProgramLabel = %v, want LabelSlow (barrier-only phase discipline)", pl)
	}
}

func TestAdvisePoison(t *testing.T) {
	res := adviceOf(t, "../testdata/src/advise_poison")
	for _, a := range res.Advice {
		if a.Label != history.LabelSC {
			t.Errorf("advice for %q = %v, want LabelSC: a dynamic-location write poisons every claim", a.Loc, a.Label)
		}
	}
	got := labels(res)
	if _, ok := got["z"]; !ok {
		t.Fatalf("no advice for z: %v", got)
	}
}

func TestRank(t *testing.T) {
	if !(advise.Rank(history.LabelSlow) < advise.Rank(history.LabelPRAM) &&
		advise.Rank(history.LabelPRAM) < advise.Rank(history.LabelCausal) &&
		advise.Rank(history.LabelCausal) < advise.Rank(history.LabelSC)) {
		t.Errorf("Rank does not order Slow < PRAM < Causal < SC: %d %d %d %d",
			advise.Rank(history.LabelSlow), advise.Rank(history.LabelPRAM),
			advise.Rank(history.LabelCausal), advise.Rank(history.LabelSC))
	}
	if advise.Rank(history.LabelNone) != advise.Rank(history.LabelSC) {
		t.Errorf("legacy LabelNone should share the unconditioned top with LabelSC")
	}
}

// TestAdviseEmpty pins the verdict over no access site: a program whose every
// access names its location at run time gets no advice, and its program label
// is unknown rather than Slow, the lattice bottom no proof reached.
func TestAdviseEmpty(t *testing.T) {
	res := adviceOf(t, "../testdata/src/advise_empty")
	if len(res.Advice) != 0 {
		t.Fatalf("advice over computed locations only: %v", res.Advice)
	}
	if l, ok := res.ProgramLabel(); ok {
		t.Errorf("ProgramLabel = %v with no access site, want none", l)
	}
	if v := res.ProgramVerdict(); v != "unknown" {
		t.Errorf("ProgramVerdict = %q, want unknown", v)
	}
}
