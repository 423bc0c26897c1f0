package mixedvet_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mixedmem/internal/analysis/mixedvet"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot from current analyzer output")

// TestGoldenSnapshot pins the exact text output of the whole suite — every
// analyzer plus the advice engine — over every fixture directory. Any
// change to a diagnostic message, a position, an advice label, or a
// rationale shows up as a golden diff, reviewed rather than discovered in
// CI of a downstream change. Regenerate deliberately with:
//
//	go test ./internal/analysis/mixedvet -run Golden -update
func TestGoldenSnapshot(t *testing.T) {
	src, err := filepath.Abs("../testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)

	var buf bytes.Buffer
	for _, d := range dirs {
		rep, err := mixedvet.Run(src, []string{"./" + d}, mixedvet.Analyzers, true)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		fmt.Fprintf(&buf, "== %s\n", d)
		for _, f := range rep.Findings {
			// Positions are absolute; relativize both the finding's own
			// position and any positions embedded in its message.
			line := fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
			fmt.Fprintln(&buf, strings.ReplaceAll(line, src+string(filepath.Separator), ""))
		}
		if rep.Suppressed > 0 {
			fmt.Fprintf(&buf, "suppressed: %d\n", rep.Suppressed)
		}
		for _, a := range rep.Advice.Advice {
			fmt.Fprintf(&buf, "advise: %-12s %-6s %s\n", a.Loc, a.Label, a.Rationale)
		}
		fmt.Fprintf(&buf, "advise: program label: %s\n", rep.Advice.ProgramVerdict())
	}

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("analyzer output diverged from the golden snapshot.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, regenerate with -update.",
			buf.String(), want)
	}
}
