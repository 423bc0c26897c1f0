package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunQuickSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Every experiment must run to completion in quick mode. E2/E5 are the
	// slowest; the rest are cheap even under test.
	for _, exp := range []string{"e1", "e3", "e9", "a1"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run([]string{"-exp", exp, "-quick"}); err != nil {
				t.Fatalf("run(%s): %v", exp, err)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "e99"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
	// The list of valid ids comes from the experiment table.
	if want := experimentIDs(", ", false) + ", or all"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want the table's ids %q", err, want)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestRunRejectsDegenerateProcs(t *testing.T) {
	err := run([]string{"-procs", "1", "-exp", "e2", "-quick"})
	if err == nil || !strings.Contains(err.Error(), "at least 2 processes") {
		t.Fatalf("err = %v, want procs guard", err)
	}
}

func TestRunJSONEmitsParsableRows(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo([]string{"-exp", "e1", "-json"}, &buf); err != nil {
		t.Fatalf("runTo: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON rows emitted")
	}
	for _, line := range lines {
		var rec struct {
			Exp       string          `json:"exp"`
			Transport string          `json:"transport"`
			Type      string          `json:"type"`
			Data      json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if rec.Exp != "e1" || rec.Transport != "sim" || rec.Type == "" || len(rec.Data) == 0 {
			t.Fatalf("incomplete record: %q", line)
		}
	}
	if strings.Contains(buf.String(), "claim") {
		t.Fatal("claim prose leaked into -json output")
	}
}

func TestRunTransportValidation(t *testing.T) {
	if err := run([]string{"-transport", "bogus"}); err == nil {
		t.Fatal("bogus transport accepted")
	}
	err := run([]string{"-transport", "tcp", "-exp", "e2"})
	if err == nil || !strings.Contains(err.Error(), "-exp e8s") {
		t.Fatalf("err = %v, want tcp-capable guard", err)
	}
}

func TestRunE8SOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	var buf bytes.Buffer
	if err := runTo([]string{"-exp", "e8s", "-quick", "-transport", "tcp", "-json"}, &buf); err != nil {
		t.Fatalf("runTo: %v", err)
	}
	var rec struct {
		Transport string `json:"transport"`
		Data      struct {
			Procs  int
			Points []struct {
				Write, Read int64
				MsgsPerOp   float64
			}
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("parse: %v (output %q)", err, buf.String())
	}
	// The tcp curve runs at the -procs default, like the sim one.
	if rec.Transport != "tcp" || rec.Data.Procs != 4 || len(rec.Data.Points) != 4 {
		t.Fatalf("suspicious tcp spectrum: %+v", rec)
	}
	for i, pt := range rec.Data.Points {
		if pt.Write <= 0 || pt.Read <= 0 || pt.MsgsPerOp <= 0 {
			t.Fatalf("point %d has an empty column: %+v", i, pt)
		}
	}
}

func TestRunS1QuickJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	var buf bytes.Buffer
	if err := runTo([]string{"-exp", "s1", "-quick", "-json"}, &buf); err != nil {
		t.Fatalf("runTo: %v", err)
	}
	var rec struct {
		Exp  string `json:"exp"`
		Data struct {
			Transport string
			Cells     []struct {
				Mode        string
				Rate        float64
				Read        struct{ Count, P50, P99, P999 int64 }
				Write       struct{ Count, P50, P99, P999 int64 }
				Vis         struct{ Count, P99 int64 }
				Fingerprint uint64
			}
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("parse: %v (output %q)", err, buf.String())
	}
	if rec.Exp != "s1" || rec.Data.Transport != "sim" {
		t.Fatalf("wrong row identity: %+v", rec)
	}
	rates := map[float64]bool{}
	modes := map[string]bool{}
	for _, c := range rec.Data.Cells {
		rates[c.Rate] = true
		modes[c.Mode] = true
		if c.Read.Count == 0 || c.Write.Count == 0 || c.Vis.Count == 0 {
			t.Fatalf("cell %q rate %.0f has empty histograms", c.Mode, c.Rate)
		}
		if c.Fingerprint == 0 {
			t.Fatalf("cell %q rate %.0f missing workload fingerprint", c.Mode, c.Rate)
		}
	}
	if len(rates) < 3 {
		t.Fatalf("only %d offered-load points, want >= 3", len(rates))
	}
	if len(modes) != 3 {
		t.Fatalf("got label configurations %v, want all three", modes)
	}
}

func TestRunS1OverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	var buf bytes.Buffer
	if err := runTo([]string{"-exp", "s1", "-quick", "-json", "-transport", "tcp"}, &buf); err != nil {
		t.Fatalf("runTo: %v", err)
	}
	var rec struct {
		Data struct {
			Transport string
			Cells     []struct{ Fingerprint uint64 }
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("parse: %v (output %q)", err, buf.String())
	}
	if rec.Data.Transport != "tcp" || len(rec.Data.Cells) == 0 {
		t.Fatalf("suspicious tcp serving row: %+v", rec.Data)
	}
}

func TestTCPRegistryListsCapableExperiments(t *testing.T) {
	err := run([]string{"-transport", "tcp", "-exp", "e2"})
	if err == nil {
		t.Fatal("tcp with a sim-only experiment must error")
	}
	// The guard's list and the flag's help text both come from the experiment
	// table, so every tcp-capable experiment appears in both.
	if got, want := experimentIDs(", ", true), "e8s, a3, s1, perf"; got != want {
		t.Fatalf("tcp-capable experiments = %q, want %q", got, want)
	}
	for _, id := range strings.Split(experimentIDs(" ", true), " ") {
		if !strings.Contains(err.Error(), "-exp "+id) {
			t.Fatalf("tcp guard %q does not list capable experiment %s", err, id)
		}
	}
}
