package mixedvet_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"mixedmem/internal/analysis/mixedvet"
)

// TestIgnoreSuppression runs the suite over a package whose one deliberate
// violation carries a //mixedvet:ignore annotation: the finding must be
// counted as suppressed, not reported.
func TestIgnoreSuppression(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mixedvet.Run(root, []string{"./internal/analysis/crossval/nonefact"}, mixedvet.Analyzers, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("annotated package reported %d findings, want 0: %v", len(rep.Findings), rep.Findings)
	}
	if rep.Suppressed == 0 {
		t.Errorf("annotated package counted 0 suppressed findings, want > 0")
	}
}

// TestJSONReport checks the -json document: valid JSON, findings with
// populated positions, and the advice section with a program label.
func TestJSONReport(t *testing.T) {
	src, err := filepath.Abs("../testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mixedvet.Run(src, []string{"./phasediscipline"}, mixedvet.Analyzers, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []struct {
			Pos      string `json:"pos"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
		Suppressed int `json:"suppressed"`
		Advice     []struct {
			Loc   string `json:"loc"`
			Label string `json:"label"`
		} `json:"advice"`
		ProgramLabel string `json:"programLabel"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc.Findings) == 0 {
		t.Fatal("phasediscipline fixtures produced no findings in the JSON document")
	}
	for _, f := range doc.Findings {
		if f.Pos == "" || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
	}
	if doc.ProgramLabel == "" {
		t.Error("programLabel missing from the advice section")
	}
}

// TestJSONReportUnknownLabel runs the advice engine over a package with no
// access site: the document's programLabel is unknown, not a label.
func TestJSONReportUnknownLabel(t *testing.T) {
	src, err := filepath.Abs("../testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mixedvet.Run(src, []string{"./advise_empty"}, mixedvet.Analyzers, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ProgramLabel string `json:"programLabel"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, raw)
	}
	if doc.ProgramLabel != "unknown" {
		t.Errorf("programLabel = %q over no access site, want unknown", doc.ProgramLabel)
	}
}
