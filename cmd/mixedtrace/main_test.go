package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixedmem/internal/apps"
	"mixedmem/internal/bench"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// writeTestTrace runs a tiny traced S1 cell and writes its merged trace,
// returning the file path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	res, err := bench.RunServing(bench.ServingOptions{
		Procs: 2, Workers: 1,
		Ops: 30, Warmup: 6,
		Rates:         []float64{0},
		Modes:         []apps.SessionMode{apps.SessionCausalScoped},
		Substrate:     bench.Substrate{Latency: network.LatencyModel{Fixed: 20 * 1000}}, // 20µs
		Seed:          5,
		TraceCapacity: 1 << 14,
	})
	if err != nil {
		t.Fatalf("RunServing: %v", err)
	}
	path := filepath.Join(t.TempDir(), "s1.mxtr")
	if err := os.WriteFile(path, obs.EncodeTrace(res.Traces), 0o644); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	return path
}

// TestExplainTraceFile is the CLI round trip: a traced serving run's file
// explains into a table that passes the 95% attribution gate and exports a
// valid Chrome trace document.
func TestExplainTraceFile(t *testing.T) {
	path := writeTestTrace(t)
	chrome := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-min-attr", "0.95", "-chrome", chrome, path}, &out); err != nil {
		t.Fatalf("mixedtrace: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "sim/causal-scoped@closed") {
		t.Fatalf("table missing the run tag:\n%s", got)
	}
	if !strings.Contains(got, "attribution gate passed") {
		t.Fatalf("gate did not pass:\n%s", got)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome document has no events")
	}
}

// TestCheckMode pins -check: a real traced serving run replays clean, and
// a trace with a seeded lock-pairing breach fails with the violation named.
func TestCheckMode(t *testing.T) {
	path := writeTestTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-check", path}, &out); err != nil {
		t.Fatalf("clean trace failed -check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "check passed") {
		t.Fatalf("missing pass line:\n%s", out.String())
	}

	bad := &obs.Snapshot{
		Tag: "seeded", Node: 0, Capacity: 64, Recorded: 1,
		Locs: []string{"m"},
		Events: []obs.Event{
			{Index: 0, Type: obs.EvLockRelease, Loc: 0, B: 1},
		},
	}
	badPath := filepath.Join(t.TempDir(), "bad.mxtr")
	if err := os.WriteFile(badPath, obs.EncodeTrace([]*obs.Snapshot{bad}), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run([]string{"-check", badPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 discipline violations") {
		t.Fatalf("seeded violation not detected: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `lock "m" released in write mode while not held`) {
		t.Fatalf("violation not printed:\n%s", out.String())
	}
}

// TestProbeSelection pins the -probe modes: 'all' accepts more awaits than
// the default vis-flag predicate, and a prefix that matches nothing fails.
func TestProbeSelection(t *testing.T) {
	path := writeTestTrace(t)
	var flagOnly, all bytes.Buffer
	if err := run([]string{path}, &flagOnly); err != nil {
		t.Fatalf("default probe: %v", err)
	}
	if err := run([]string{"-probe", "all", path}, &all); err != nil {
		t.Fatalf("-probe all: %v", err)
	}
	if err := run([]string{"-probe", "nosuch/", path}, new(bytes.Buffer)); err == nil {
		t.Fatal("want error for a probe prefix matching nothing")
	}
	if err := run([]string{}, new(bytes.Buffer)); err == nil {
		t.Fatal("want usage error without a trace file")
	}
	if err := run([]string{"-min-attr", "2", path}, new(bytes.Buffer)); err == nil {
		t.Fatal("want error for -min-attr out of range")
	}
}
