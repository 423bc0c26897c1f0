package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/hist"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
)

// freeAddrs reserves n distinct loopback ports and releases them for the
// nodes to rebind. The window between release and rebind is racy in theory;
// in practice the kernel does not reassign just-released listening ports to
// other processes immediately, and the dial supervisors tolerate peers that
// come up late.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// launch runs one mixednode process body per node id, as separate OS
// processes would, and returns each node's error and output.
func launch(t *testing.T, addrs []string, extra ...string) []string {
	t.Helper()
	peerList := strings.Join(addrs, ",")
	outs := make([]string, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for id := range addrs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var buf bytes.Buffer
			args := append([]string{
				"-id", fmt.Sprint(id), "-peers", peerList,
			}, extra...)
			errs[id] = run(args, &buf)
			outs[id] = buf.String()
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v (output %q)", id, err, outs[id])
		}
	}
	return outs
}

func TestMixednodeSolveThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	outs := launch(t, freeAddrs(t, 3), "-app", "solve", "-size", "16", "-seed", "11")
	for id, out := range outs {
		if !strings.Contains(out, "converged") || !strings.Contains(out, "done in") {
			t.Fatalf("node %d output missing verification: %q", id, out)
		}
	}
}

func TestMixednodeCholeskyThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	outs := launch(t, freeAddrs(t, 3), "-app", "cholesky", "-size", "12", "-seed", "3", "-propagation", "eager")
	for id, out := range outs {
		if !strings.Contains(out, "matches sequential") {
			t.Fatalf("node %d output missing verification: %q", id, out)
		}
	}
}

// TestMixednodeEMFieldScopedThreeProcesses runs the Figure 4 field
// computation both broadcast and causal-scoped: the same fleet, the same
// bit-exact verification, but under -scoped each boundary update travels
// point to point with a dependency matrix instead of broadcasting.
func TestMixednodeEMFieldScopedThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	outs := launch(t, freeAddrs(t, 3), "-app", "emfield", "-size", "24", "-steps", "6", "-seed", "5")
	for id, out := range outs {
		if !strings.Contains(out, "(broadcast) matches sequential bit-exactly") {
			t.Fatalf("node %d output missing verification: %q", id, out)
		}
	}
	outs = launch(t, freeAddrs(t, 3), "-app", "emfield", "-size", "24", "-steps", "6", "-seed", "5", "-scoped")
	for id, out := range outs {
		if !strings.Contains(out, "(causal-scoped) matches sequential bit-exactly") {
			t.Fatalf("node %d output missing scoped verification: %q", id, out)
		}
	}
}

// TestMixednodeMetricsMergedSnapshot runs a batched fleet with -metrics on
// every node and checks that (a) each node prints the merged per-kind
// snapshot, (b) all nodes agree on it (the exchange goes through the DSM, so
// any disagreement is a consistency bug), and (c) the batched outbox actually
// ran over TCP — update-batch frames appear in the fleet totals.
func TestMixednodeMetricsMergedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	outs := launch(t, freeAddrs(t, 3), "-app", "solve", "-size", "16", "-seed", "11",
		"-batch", "32", "-metrics")
	var want string
	for id, out := range outs {
		var fleet []string
		prefix := fmt.Sprintf("node %d: fleet", id)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				fleet = append(fleet, strings.TrimPrefix(line, prefix))
			}
		}
		if len(fleet) == 0 {
			t.Fatalf("node %d printed no fleet metrics: %q", id, out)
		}
		merged := strings.Join(fleet, "\n")
		if !strings.Contains(merged, "totals:") {
			t.Fatalf("node %d missing totals row: %q", id, merged)
		}
		if !strings.Contains(merged, "update-batch") {
			t.Fatalf("node %d saw no update-batch frames despite -batch 32: %q", id, merged)
		}
		if id == 0 {
			want = merged
		} else if merged != want {
			t.Fatalf("node %d merged snapshot disagrees with node 0:\n%q\nvs\n%q", id, merged, want)
		}
	}
}

// TestMixednodeSessionThreeProcesses runs the S1 session/KV front-end as a
// real three-node TCP fleet with causal-scoped labels and -metrics: every
// node must verify the replay-predicted aggregate counters, and the merged
// fleet snapshot — now including the latency histograms and the
// malformed-update counter — must be identical on every node, because each
// node reconstructs it from the same exact bucket counts.
func TestMixednodeSessionThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	outs := launch(t, freeAddrs(t, 3), "-app", "session", "-size", "30", "-seed", "9",
		"-labels", "causal-scoped", "-metrics")
	var want string
	for id, out := range outs {
		if !strings.Contains(out, "session (causal-scoped)") || !strings.Contains(out, "counters verified") {
			t.Fatalf("node %d output missing session verification: %q", id, out)
		}
		var fleet []string
		prefix := fmt.Sprintf("node %d: fleet", id)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				fleet = append(fleet, strings.TrimPrefix(line, prefix))
			}
		}
		merged := strings.Join(fleet, "\n")
		for _, row := range []string{"totals:", "malformed-updates: 0", "read  latency:", "write latency:", "vis   latency:"} {
			if !strings.Contains(merged, row) {
				t.Fatalf("node %d fleet metrics missing %q: %q", id, row, merged)
			}
		}
		if id == 0 {
			want = merged
		} else if merged != want {
			t.Fatalf("node %d merged snapshot disagrees with node 0:\n%q\nvs\n%q", id, merged, want)
		}
	}
}

// TestFleetHistMergeEqualsPooled drives the -metrics histogram exchange
// through a simulated fleet and pins the exactness claim: the percentiles of
// the fleet-merged histogram equal the percentiles of one histogram fed all
// nodes' samples pooled together, and both sit within half a bucket width of
// the true rank percentile of the raw pooled samples.
func TestFleetHistMergeEqualsPooled(t *testing.T) {
	const procs, samples = 4, 800
	sys, err := core.NewSystem(core.Config{
		Procs:   procs,
		Latency: network.LatencyModel{Fixed: 20 * time.Microsecond},
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	perProc := make([]*hist.Histogram, procs)
	raw := make([][]int64, procs)
	merged := make([]*hist.Histogram, procs)
	empty := make([]*hist.Histogram, procs)
	mergeErrs := make([]error, procs)
	sys.Run(func(p *core.Proc) {
		h := hist.New()
		x := uint64(p.ID())*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		vals := make([]int64, samples)
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			v := int64((x >> 16) % 50_000_000)
			vals[i] = v
			h.Record(v)
		}
		raw[p.ID()], perProc[p.ID()] = vals, h
		// "vis" is a histogram this node measured nothing for.
		fleet, err := exchangeMetrics(p, transport.Stats{}, dsm.Stats{}, map[string]*hist.Histogram{"read": h, "vis": nil})
		merged[p.ID()], mergeErrs[p.ID()] = fleet.Hists["read"], err
		empty[p.ID()] = fleet.Hists["vis"]
	})
	pooled := hist.New()
	var all []int64
	for id := range perProc {
		pooled.Merge(perProc[id])
		all = append(all, raw[id]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for id := 0; id < procs; id++ {
		if mergeErrs[id] != nil {
			t.Fatalf("node %d: exchangeMetrics: %v", id, mergeErrs[id])
		}
		if empty[id] == nil || empty[id].Count() != 0 {
			t.Fatalf("node %d: unpublished histogram merged non-empty", id)
		}
		m := merged[id]
		if m.Count() != pooled.Count() || m.Sum() != pooled.Sum() || m.Max() != pooled.Max() {
			t.Fatalf("node %d merged (count %d sum %d) disagrees with pooled (count %d sum %d)",
				id, m.Count(), m.Sum(), pooled.Count(), pooled.Sum())
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			got, want := m.Quantile(q), pooled.Quantile(q)
			if got != want {
				t.Errorf("node %d q%v: merged %d != pooled %d", id, q, got, want)
			}
			rank := int(math.Ceil(q * float64(len(all))))
			if rank < 1 {
				rank = 1
			}
			exact := all[rank-1]
			if d := got - exact; d < -(exact>>4+1) || d > exact>>4+1 {
				t.Errorf("node %d q%v: merged %d too far from exact pooled percentile %d", id, q, got, exact)
			}
		}
	}
}

func TestMixednodeFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-peers", "a:1,b:2"}, &buf); err == nil {
		t.Fatal("missing -id accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "only-one:1"}, &buf); err == nil {
		t.Fatal("single-peer list accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "a:1,b:2", "-propagation", "psychic"}, &buf); err == nil {
		t.Fatal("bad propagation accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "127.0.0.1:0,127.0.0.1:0", "-app", "nope"}, &buf); err == nil {
		t.Fatal("bad app accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "a:1,b:2", "-batch", "-3"}, &buf); err == nil {
		t.Fatal("negative batch accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "a:1,b:2", "-app", "solve", "-scoped"}, &buf); err == nil {
		t.Fatal("-scoped without -app emfield accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "a:1,b:2", "-app", "session", "-labels", "psychic"}, &buf); err == nil {
		t.Fatal("bad -labels accepted")
	}
	if err := run([]string{"-id", "0", "-peers", "a:1,b:2", "-app", "solve", "-labels", "hybrid"}, &buf); err == nil {
		t.Fatal("-labels without -app session accepted")
	}
}

// TestMixednodeFleetTraceDrain runs a traced session fleet with -trace-out
// on every node: the rings drain through the DSM itself, every node writes
// an identical merged trace file, and the causal-path explainer attributes
// the write-visibility probes in it at >= 95%.
func TestMixednodeFleetTraceDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	addrs := freeAddrs(t, 3)
	peerList := strings.Join(addrs, ",")
	dir := t.TempDir()
	outs := make([]string, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for id := range addrs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var buf bytes.Buffer
			// -batch matters here: the drain ships ~10k trace cells per
			// node, and the outbox coalesces those writes into wide frames
			// instead of one frame each (66s -> ~6s on loopback).
			errs[id] = run([]string{
				"-id", fmt.Sprint(id), "-peers", peerList,
				"-app", "session", "-labels", "causal-scoped", "-size", "24", "-seed", "9",
				"-batch", "64",
				"-trace", "32768", "-trace-out", filepath.Join(dir, fmt.Sprintf("t%d.mxtr", id)),
				"-obs", "127.0.0.1:0",
			}, &buf)
			outs[id] = buf.String()
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v (output %q)", id, err, outs[id])
		}
		if !strings.Contains(outs[id], "obs endpoint on http://") {
			t.Errorf("node %d missing obs endpoint line: %q", id, outs[id])
		}
		if !strings.Contains(outs[id], "fleet trace: 3 node snapshots") {
			t.Errorf("node %d missing fleet trace line: %q", id, outs[id])
		}
	}

	// Every node drained the same cells, so the files are byte-identical.
	ref, err := os.ReadFile(filepath.Join(dir, "t0.mxtr"))
	if err != nil {
		t.Fatalf("read merged trace: %v", err)
	}
	for id := 1; id < len(addrs); id++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("t%d.mxtr", id)))
		if err != nil {
			t.Fatalf("read node %d trace: %v", id, err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("node %d drained a different merged trace (%d vs %d bytes)", id, len(got), len(ref))
		}
	}

	snaps, err := obs.DecodeTrace(ref)
	if err != nil {
		t.Fatalf("decode merged trace: %v", err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	for _, s := range snaps {
		if s.Tag != "session/causal-scoped" {
			t.Fatalf("snapshot tag %q", s.Tag)
		}
		if len(s.Events) == 0 || s.Dropped != 0 {
			t.Fatalf("node %d snapshot: %d events, %d dropped", s.Node, len(s.Events), s.Dropped)
		}
	}
	ex := obs.Explain(snaps, apps.IsVisFlagLoc)
	if len(ex.Breakdowns) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(ex.Breakdowns))
	}
	b := ex.Breakdowns[0]
	if b.Samples == 0 || b.Incomplete != 0 || b.MinAttribution < 0.95 {
		t.Fatalf("attribution gate failed over the drained fleet trace: %+v", b)
	}
}
