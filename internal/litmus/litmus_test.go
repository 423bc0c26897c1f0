package litmus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixedmem/internal/history"
)

// TestSuiteVerdicts evaluates every litmus test at all four lattice points
// and compares with its annotation.
func TestSuiteVerdicts(t *testing.T) {
	for _, tt := range Suite() {
		tt := tt
		t.Run(tt.Name, func(t *testing.T) {
			slow, pram, causal, sc, err := tt.Evaluate()
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			if slow != tt.Slow {
				t.Errorf("slow verdict = %v, want %v (%s)", slow, tt.Slow, tt.Description)
			}
			if pram != tt.PRAM {
				t.Errorf("PRAM verdict = %v, want %v (%s)", pram, tt.PRAM, tt.Description)
			}
			if causal != tt.Causal {
				t.Errorf("causal verdict = %v, want %v (%s)", causal, tt.Causal, tt.Description)
			}
			if sc != tt.SC {
				t.Errorf("SC verdict = %v, want %v (%s)", sc, tt.SC, tt.Description)
			}
		})
	}
}

// TestHierarchy checks the inclusion SC ⊆ causal ⊆ PRAM ⊆ slow on the
// annotations themselves: anything admitted by a stronger condition must be
// admitted by every weaker one.
func TestHierarchy(t *testing.T) {
	for _, tt := range Suite() {
		if tt.SC == Allowed && tt.Causal == Forbidden {
			t.Errorf("%s: SC-allowed but causal-forbidden breaks the hierarchy", tt.Name)
		}
		if tt.Causal == Allowed && tt.PRAM == Forbidden {
			t.Errorf("%s: causal-allowed but PRAM-forbidden breaks the hierarchy", tt.Name)
		}
		if tt.PRAM == Allowed && tt.Slow == Forbidden {
			t.Errorf("%s: PRAM-allowed but slow-forbidden breaks the hierarchy", tt.Name)
		}
	}
}

// TestStrictSeparationWitnesses ensures the suite contains witnesses for all
// three strict inclusions: a history PRAM-forbidden but slow-allowed, one
// causal-forbidden but PRAM-allowed, and one SC-forbidden but causal-allowed.
func TestStrictSeparationWitnesses(t *testing.T) {
	var slowOnly, pramOnly, causalOnly bool
	for _, tt := range Suite() {
		if tt.Slow == Allowed && tt.PRAM == Forbidden {
			slowOnly = true
		}
		if tt.PRAM == Allowed && tt.Causal == Forbidden {
			pramOnly = true
		}
		if tt.Causal == Allowed && tt.SC == Forbidden {
			causalOnly = true
		}
	}
	if !slowOnly {
		t.Error("no witness separating slow from PRAM")
	}
	if !pramOnly {
		t.Error("no witness separating PRAM from causal")
	}
	if !causalOnly {
		t.Error("no witness separating causal from SC")
	}
}

// TestSpectrumAnchors pins the acceptance anchors of the verdict matrix by
// name: store buffering is forbidden under SC but allowed under PRAM (and
// everything weaker), and message passing separates slow from PRAM — the
// per-writer cross-location FIFO is exactly what the slow label drops.
func TestSpectrumAnchors(t *testing.T) {
	byName := make(map[string]Test)
	for _, tt := range Suite() {
		byName[tt.Name] = tt
	}
	sb, ok := byName["SB"]
	if !ok {
		t.Fatal("suite lost the SB test")
	}
	if sb.SC != Forbidden || sb.PRAM != Allowed || sb.Slow != Allowed {
		t.Errorf("SB verdicts (slow=%v pram=%v sc=%v) lost the store-buffering anchor",
			sb.Slow, sb.PRAM, sb.SC)
	}
	mp, ok := byName["MP"]
	if !ok {
		t.Fatal("suite lost the MP test")
	}
	if mp.Slow != Allowed || mp.PRAM != Forbidden {
		t.Errorf("MP verdicts (slow=%v pram=%v) lost the slow/PRAM separation anchor",
			mp.Slow, mp.PRAM)
	}
}

// TestVerdictString covers the String method.
func TestVerdictString(t *testing.T) {
	if Allowed.String() != "allowed" || Forbidden.String() != "forbidden" {
		t.Error("bad verdict strings")
	}
}

// TestSuiteHistoriesWellFormed double-checks every built history analyzes
// cleanly at every lattice point.
func TestSuiteHistoriesWellFormed(t *testing.T) {
	for _, tt := range Suite() {
		for _, l := range history.LatticeLabels() {
			if _, err := tt.Build(l).Analyze(); err != nil {
				t.Errorf("%s (%v): %v", tt.Name, l, err)
			}
		}
	}
}

// TestSuiteNamesUnique guards against copy-paste duplicates.
func TestSuiteNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, tt := range Suite() {
		if seen[tt.Name] {
			t.Errorf("duplicate test name %q", tt.Name)
		}
		seen[tt.Name] = true
	}
}

// verdictTable renders the suite's verdict matrix as a fixed-width text table, one
// row per litmus test and one column per lattice point, weakest first. The
// annotations it prints are the ones TestSuiteVerdicts checks against the
// checkers, so the rendered table is pinned executable documentation (CI
// publishes it as the conformance artifact).
func verdictTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-10s %-10s %-10s %-10s\n", "test", "slow", "pram", "causal", "sc")
	for _, t := range Suite() {
		fmt.Fprintf(&b, "%-18s %-10v %-10v %-10v %-10v\n", t.Name, t.Slow, t.PRAM, t.Causal, t.SC)
	}
	return b.String()
}

// TestGoldenVerdictTable pins the rendered verdict matrix byte-for-byte
// against the checked-in golden file — the conformance artifact CI uploads.
// Update the golden with -update when the suite intentionally changes.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenVerdictTable(t *testing.T) {
	got := verdictTable()
	path := filepath.Join("testdata", "verdicts.golden")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("verdict table drifted from golden %s:\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
