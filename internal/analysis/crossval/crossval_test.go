package crossval

import (
	"path/filepath"
	"testing"

	"mixedmem/internal/analysis/advise"
	"mixedmem/internal/analysis/crossval/causalfact"
	"mixedmem/internal/analysis/crossval/causalprog"
	"mixedmem/internal/analysis/crossval/nonefact"
	"mixedmem/internal/analysis/crossval/noneprog"
	"mixedmem/internal/analysis/crossval/pramfact"
	"mixedmem/internal/analysis/crossval/pramprog"
	"mixedmem/internal/analysis/crossval/slowfact"
	"mixedmem/internal/analysis/crossval/slowprog"
	"mixedmem/internal/analysis/framework"
	"mixedmem/internal/check"
	"mixedmem/internal/core"
	"mixedmem/internal/history"
	"mixedmem/internal/obs"
	"mixedmem/internal/obs/tracecheck"
)

// staticAdvice runs the advice engine over one program package's source.
func staticAdvice(t *testing.T, dir string) *advise.Result {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := framework.LoadDir(abs, abs)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return advise.Packages([]*framework.Package{pkg})
}

// dynamicAdvice records one execution of the program and runs the paper's
// compiler check on the history, using the statically derived lock map.
func dynamicAdvice(t *testing.T, prog func(p *core.Proc), locks map[string]string) check.Advice {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Procs: 3, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(prog)
	return check.Advise(sys.History(), locks)
}

// TestStaticMatchesDynamic runs each cross-validation program both ways and
// requires agreement: the same source, judged from its syntax and from a
// recorded execution, gets the same label. The static lock association
// feeds the dynamic entry check, closing the loop mixedvet -advise promises.
func TestStaticMatchesDynamic(t *testing.T) {
	cases := []struct {
		dir  string
		prog func(p *core.Proc)
		want history.Label
	}{
		{"slowprog", slowprog.Program, history.LabelSlow},
		{"pramprog", pramprog.Program, history.LabelPRAM},
		{"causalprog", causalprog.Program, history.LabelCausal},
		{"noneprog", noneprog.Program, history.LabelSC},
		// The helper-factored variants: same programs, every access and
		// lock operation behind a call boundary, so agreement here pins the
		// interprocedural machinery (summaries, entry fixpoints, virtual
		// inlining) at all four lattice points.
		{"slowfact", slowfact.Program, history.LabelSlow},
		{"pramfact", pramfact.Program, history.LabelPRAM},
		{"causalfact", causalfact.Program, history.LabelCausal},
		{"nonefact", nonefact.Program, history.LabelSC},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			static := staticAdvice(t, tc.dir)
			label, _ := static.ProgramLabel()
			if label != tc.want {
				t.Errorf("static label = %v, want %v\nadvice: %+v", label, tc.want, static.Advice)
			}
			dyn := dynamicAdvice(t, tc.prog, static.LockOf)
			if dyn.Label != tc.want {
				t.Errorf("dynamic label = %v, want %v (rationale: %s)", dyn.Label, tc.want, dyn.Rationale)
			}
			if advise.Rank(label) < advise.Rank(dyn.Label) {
				t.Errorf("static advice %v is weaker than dynamic %v: the static engine is unsound",
					label, dyn.Label)
			}
		})
	}
}

// tracedRun executes prog in a traced system and returns the per-node
// event snapshots, tagged with the given run name.
func tracedRun(t *testing.T, tag string, prog func(p *core.Proc), labels map[string]history.Label) []*obs.Snapshot {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Procs: 3, Labels: labels, TraceCapacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(prog)
	var snaps []*obs.Snapshot
	for i := 0; i < sys.Procs(); i++ {
		s := sys.Proc(i).Tracer().Snapshot()
		s.Tag = tag
		snaps = append(snaps, s)
	}
	return snaps
}

// TestTraceCheckAgreesWithStatic closes the third side of the validation
// triangle: programs the static engine certifies as disciplined must also
// replay clean through the dynamic trace checker, and the program the
// static engine rejects (double write in one phase) must be caught in its
// trace once the location is labeled with the level the writes abuse.
func TestTraceCheckAgreesWithStatic(t *testing.T) {
	clean := []struct {
		tag    string
		prog   func(p *core.Proc)
		labels map[string]history.Label
	}{
		{"slowprog", slowprog.Program, map[string]history.Label{"x": history.LabelSlow, "y": history.LabelSlow}},
		{"slowfact", slowfact.Program, map[string]history.Label{"x": history.LabelSlow, "y": history.LabelSlow}},
		{"pramfact", pramfact.Program, map[string]history.Label{"y": history.LabelPRAM}},
		{"causalfact", causalfact.Program, map[string]history.Label{"tab": history.LabelCausal}},
	}
	for _, tc := range clean {
		t.Run(tc.tag, func(t *testing.T) {
			res := tracecheck.Check(tracedRun(t, tc.tag, tc.prog, tc.labels))
			if len(res.Violations) != 0 {
				t.Errorf("disciplined program's trace has violations: %v", res.Violations)
			}
			if res.NodesChecked == 0 || res.WritesChecked == 0 {
				t.Errorf("trace check judged nothing: %+v", res)
			}
		})
	}
	// The undisciplined program: "c" written twice in phase 0. Labeled PRAM
	// — the label its phase placement fails to justify — the checker must
	// report the double write the static engine also rejects.
	t.Run("nonefact", func(t *testing.T) {
		res := tracecheck.Check(tracedRun(t, "nonefact", nonefact.Program,
			map[string]history.Label{"c": history.LabelPRAM}))
		found := false
		for _, v := range res.Violations {
			if v.Kind == tracecheck.KindPhaseDoubleWrite && v.Loc == "c" {
				found = true
			}
		}
		if !found {
			t.Errorf("seeded phase double write not detected: %+v", res.Violations)
		}
	})
}

// TestStaticNeverWeakerOnExamples checks the soundness direction over the
// repo's example programs. All of them write through computed location
// names (per-process slots, matrix rows), which a static engine cannot
// attribute to a location, so the only sound static answer is LabelSC for
// every location — which by construction is never weaker than whatever a
// recorded execution would justify.
func TestStaticNeverWeakerOnExamples(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cholesky", "emfield", "gaussasync", "linsolve", "pipeline", "quickstart"} {
		t.Run(name, func(t *testing.T) {
			// The examples delegate their memory accesses to internal/apps,
			// so the program the engine judges is the pair of packages.
			pkgs, err := framework.Load(root, []string{"./examples/" + name, "./internal/apps"})
			if err != nil {
				t.Fatal(err)
			}
			res := advise.Packages(pkgs)
			if len(res.Advice) == 0 {
				t.Fatalf("no locations found in examples/%s", name)
			}
			for _, a := range res.Advice {
				if a.Label != history.LabelSC {
					t.Errorf("static advice for %q in examples/%s = %v; dynamic-location writes make any claim unsound",
						a.Loc, name, a.Label)
				}
			}
		})
	}
}
