package bench

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/syncmgr"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden from this run")

const countsGolden = "testdata/counts.golden"

// TestCountsGolden is the protocol's cost as a golden: the messages, frames
// and wire bytes of every count-reporting experiment on every substrate it
// runs on, the bench/e2e workloads' saturated phase rebuilt at a fixed op
// budget, and a broadcast's location bytes. Every field is exact: sizes and
// message counts are functions of the program and its seed, never of the
// schedule (DESIGN.md §7), so a row that moves is a change to what the
// protocol costs, and `go test ./internal/bench -run TestCountsGolden
// -update` rewrites the file for review. Times and allocation counts are
// left out: the schedule moves them.
func TestCountsGolden(t *testing.T) {
	rows := countRows(t)
	got := formatRows(rows)
	if *update {
		if err := os.WriteFile(countsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantRows, err := parseRows(want)
	if err != nil {
		t.Fatalf("%s: %v", countsGolden, err)
	}
	for _, d := range diffRows(wantRows, rows) {
		t.Error(d)
	}
}

// countRow is one cell of the golden: a key naming the experiment, its
// substrate and the cell, and the cell's counts in a fixed order.
type countRow struct {
	key    string
	fields []countField
}

type countField struct{ name, value string }

func (r *countRow) add(name string, v any) *countRow {
	r.fields = append(r.fields, countField{name, fmt.Sprint(v)})
	return r
}

// line renders the row: the key, then its fields as name=value.
func (r *countRow) line() string {
	var b strings.Builder
	b.WriteString(r.key)
	for _, f := range r.fields {
		fmt.Fprintf(&b, " %s=%s", f.name, f.value)
	}
	return b.String()
}

// formatRows renders the golden file: a header, then the rows one per line.
func formatRows(rows []*countRow) []byte {
	var b bytes.Buffer
	b.WriteString("# Protocol counts: exact messages, frames and wire bytes per cell.\n")
	b.WriteString("# Regenerate: go test ./internal/bench -run TestCountsGolden -update\n")
	for _, r := range rows {
		b.WriteString(r.line() + "\n")
	}
	return b.Bytes()
}

// parseRows is the golden's validator: every non-comment line is a key and at
// least one name=value field, keys are unique, and field names are unique
// within a row.
func parseRows(data []byte) ([]*countRow, error) {
	var rows []*countRow
	keys := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		words := strings.Fields(line)
		if len(words) < 2 || keys[words[0]] {
			return nil, fmt.Errorf("line %d: %q is not a row with a new key and its counts", i+1, line)
		}
		keys[words[0]] = true
		r := &countRow{key: words[0]}
		names := map[string]bool{}
		for _, w := range words[1:] {
			name, value, ok := strings.Cut(w, "=")
			if !ok || name == "" || value == "" || names[name] {
				return nil, fmt.Errorf("line %d: field %q is not a new name=value", i+1, w)
			}
			names[name] = true
			r.fields = append(r.fields, countField{name, value})
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// diffRows names every row that is missing, new, or reads differently.
func diffRows(want, got []*countRow) []string {
	byKey := map[string]*countRow{}
	for _, r := range got {
		byKey[r.key] = r
	}
	var out []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.key] = true
		g, ok := byKey[w.key]
		switch {
		case !ok:
			out = append(out, "missing: "+w.line())
		case g.line() != w.line():
			out = append(out, fmt.Sprintf("moved:\n  golden %s\n  got    %s", w.line(), g.line()))
		}
	}
	for _, g := range got {
		if !seen[g.key] {
			out = append(out, "new: "+g.line())
		}
	}
	return out
}

var substrates = []Substrate{{}, {TCP: true}}

// lingerOff is the outbox config of a batched row: thresholds and
// synchronization boundaries flush, and the linger timer never fires within
// a row, so the frame count cannot depend on how fast the host runs.
func lingerOff(maxUpdates int) dsm.BatchConfig {
	return dsm.BatchConfig{Enabled: true, MaxUpdates: maxUpdates, Linger: time.Hour}
}

func countRows(t *testing.T) []*countRow {
	var rows []*countRow
	row := func(format string, args ...any) *countRow {
		r := &countRow{key: fmt.Sprintf(format, args...)}
		rows = append(rows, r)
		return r
	}
	noLatency := network.LatencyModel{}

	// E6, as `mixedbench -exp e6 -quick` runs it, batched rows with the
	// linger timer off.
	w := PropagationWorkload{Procs: 4, Handoffs: 4, WritesPerCS: 4}
	for _, batch := range []int{0, 32} {
		wb := w
		if batch > 0 {
			wb.Batch = lingerOff(batch)
		}
		rs, err := RunPropagationSweep(wb, noLatency, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			c := row("e6/sim/%v/batch%d", r.Mode, batch).add("msgs", r.Msgs)
			// A demand-driven grant carries the write notices its holder
			// has not seen, so its bytes follow the order the four
			// processes win the lock in, which the schedule picks.
			if r.Mode != syncmgr.DemandDriven {
				c.add("bytes", r.Bytes)
			}
			c.add("update_frames", r.UpdateFrames).add("flush_msgs", r.FlushMsgs)
		}
	}

	// A1, as `mixedbench -exp a1 -quick` runs it.
	a1, err := RunTimestampAblation(12, 4, noLatency, 1)
	if err != nil || !a1.ResidualsMatch {
		t.Fatalf("a1: %+v, %v", a1, err)
	}
	row("a1/sim").add("full_bytes", a1.FullBytes).add("elided_bytes", a1.ElidedBytes)

	for _, sub := range substrates {
		// A3, as `mixedbench -exp a3 -quick` runs it.
		a3, err := RunPlacementAblation(32, 8, 4, sub, 1)
		if err != nil || !a3.ResultsMatch {
			t.Fatalf("a3/%v: %+v, %v", sub, a3, err)
		}
		row("a3/%v", sub).add("broadcast_msgs", a3.BroadcastMsgs).
			add("scoped_msgs", a3.ScopedMsgs).add("causal_scoped_msgs", a3.CausalScopedMsgs)

		// E8S, as `mixedbench -exp e8s -quick` runs it.
		e8s, err := RunLatencySpectrum(4, 100, sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range e8s.Points {
			row("e8s/%v/%v", sub, pt.Label).add("msgs_per_op", pt.MsgsPerOp).add("bytes_per_op", pt.BytesPerOp)
		}

		// S1, as `mixedbench -exp s1 -quick` runs it.
		s1Sub := sub
		s1Sub.Latency = network.LatencyModel{Fixed: 25 * time.Microsecond}
		s1, err := RunServing(ServingOptions{Procs: 4, Seed: 1, Workers: 2, Ops: 60, Warmup: 12,
			Rates: []float64{1000, 4000, 0}, Substrate: s1Sub})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s1.Cells {
			row("s1/%v/%s@%.0f", sub, c.Mode, c.Rate).add("update_msgs", c.UpdateMsgs).add("fingerprint", c.Fingerprint)
		}

		broadcastLocationRow(t, row("names/%v", sub), sub)
	}

	e2eRows(t, row)
	return rows
}

// broadcastLocationRow is the broadcast of TestBroadcastLocationBytesExact
// (internal/dsm): three nodes each write 70 locations three times over, so
// every location is named once per sender and referred to by its ordinal,
// one or two varint bytes, after that.
func broadcastLocationRow(t *testing.T, r *countRow, sub Substrate) {
	const n, k, rounds = 3, 70, 3
	tr, err := sub.transport(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*dsm.Node, n)
	for i := range nodes {
		if nodes[i], err = dsm.NewNode(dsm.Config{ID: i, N: n, Transport: tr}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	for _, nd := range nodes {
		go func() {
			for w := 0; w < k*rounds; w++ {
				nd.Write("loc/"+strconv.Itoa(w%k), int64(w))
			}
			done <- struct{}{}
		}()
	}
	for range nodes {
		<-done
	}
	for _, nd := range nodes {
		nd.WaitReceived([]uint64{k * rounds, k * rounds, k * rounds})
	}
	st := tr.Stats()
	tr.Close()
	for _, nd := range nodes {
		nd.Close()
	}
	r.add("msgs", st.MessagesSent).add("bytes", st.BytesSent)
}

// The bench/e2e workloads' saturated phase, on the same fleets (three
// processes; the sessions over loopback tcp, Jacobi and Cholesky on the sim
// fabric) and inputs, at a fixed op budget small enough for tier-1. A row
// holds the op count and the wire totals over it; its per-op figures are
// what bench/e2e reports as wire_msgs_per_op and wire_bytes_per_op, up to the
// one-off cost (definitions, first barrier) spread over fewer ops.
const e2eProcs = 3

func e2eRows(t *testing.T, row func(string, ...any) *countRow) {
	wire := func(r *countRow, ops int64, sys *core.System) {
		st := sys.NetStats()
		r.add("ops", ops).add("msgs", st.MessagesSent).add("bytes", st.BytesSent).
			add("msgs_per_op", strconv.FormatFloat(float64(st.MessagesSent)/float64(ops), 'f', 4, 64)).
			add("bytes_per_op", strconv.FormatFloat(float64(st.BytesSent)/float64(ops), 'f', 4, 64))
	}

	for _, w := range []struct {
		name string
		mode apps.SessionMode
	}{{"session-bcast-tcp", apps.SessionBroadcast}, {"session-hybrid-batched-tcp", apps.SessionHybrid}} {
		cfg := apps.SessionConfig{
			Procs: e2eProcs, Workers: 1, Sessions: 16, SessionKeys: 16,
			AggEvery: 8, AggReadEvery: 16, VisEvery: 16,
			Seed: 1, Mode: w.mode, Ops: 3000, Warmup: 300,
		}
		r := row("e2e/%s", w.name).add("fingerprint", cfg.WorkloadFingerprint())
		if w.mode == apps.SessionHybrid {
			// session-hybrid-batched-tcp ships batches, and where a batch
			// ends follows the schedule even with the linger timer off: a
			// prober thread's await flushes the outbox wherever the worker
			// is, and a remote dependency matrix merged between two scoped
			// writes splits their batch. Its frames, and the batch headers'
			// bytes with them, are not a function of the program, so the
			// row pins the workload alone.
			continue
		}
		sys, err := Substrate{TCP: true}.NewSystem(core.Config{Procs: e2eProcs, Placement: apps.SessionScope(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, e2eProcs)
		sys.Run(func(p *core.Proc) {
			apps.ServeSessions(p, cfg)
			errs[p.ID()] = apps.VerifySessionCounters(p, cfg)
		})
		wire(r, int64(e2eProcs*(cfg.Ops+cfg.Warmup)), sys)
		sys.Close()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
	}

	// jacobi-barrier-sim: Figure 2, PRAM-only; an unreachable tolerance makes
	// every run exactly iters iterations.
	const jacobiN, iters = 128, 20
	ls := apps.GenDiagDominant(jacobiN, 1)
	sys, err := core.NewSystem(core.Config{Procs: e2eProcs, PRAMOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res := make([]apps.SolveResult, e2eProcs)
	sys.Run(func(p *core.Proc) {
		res[p.ID()] = apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-300, MaxIters: iters})
	})
	wire(row("e2e/jacobi-barrier-sim"), iters, sys)
	sys.Close()
	if res[0].Iters != iters {
		t.Fatalf("jacobi ran %d iterations, want %d", res[0].Iters, iters)
	}

	// cholesky-locks-sim: Figure 5 on the 5-point grid Laplacian with a
	// seeded diagonal shift; one op is one column.
	m := apps.GenGridSPD(14)
	rng := rand.New(rand.NewSource(1))
	for i := range m.A {
		m.A[i][i] += rng.Float64()
	}
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatal(err)
	}
	if sys, err = core.NewSystem(core.Config{Procs: e2eProcs}); err != nil {
		t.Fatal(err)
	}
	chol := make([]apps.CholeskyResult, e2eProcs)
	sys.Run(func(p *core.Proc) { chol[p.ID()] = apps.CholeskyLocks(p, m, apps.SolveOptions{}) })
	wire(row("e2e/cholesky-locks-sim"), int64(m.N), sys)
	sys.Close()
	for i, c := range chol {
		if d := m.FactorError(c.L, ref); !(d <= 1e-9) {
			t.Fatalf("cholesky: proc %d's factor differs from sequential by %g", i, d)
		}
	}
}
