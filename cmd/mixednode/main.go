// Command mixednode runs ONE mixed-consistency DSM process over real TCP —
// the paper's deployment shape (Maya ran one memory manager per
// workstation). Start N copies, one per process, each with the same ordered
// peer list and its own -id; they find each other with dial retries, run the
// selected application, verify the result against the sequential reference,
// and exit.
//
// Example, a 3-process barrier solver on loopback (three shells or one with
// &):
//
//	mixednode -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	mixednode -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	mixednode -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Every process generates the same deterministic problem instance from
// -seed, so each can check its own answer locally; the exit status is
// nonzero if the distributed result disagrees with the sequential one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/hist"
	"mixedmem/internal/history"
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mixednode:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mixednode", flag.ContinueOnError)
	var (
		id      = fs.Int("id", -1, "this process's node id, 0..N-1")
		peerCSV = fs.String("peers", "", "comma-separated host:port of every node, ordered by id")
		app     = fs.String("app", "solve", "application: solve (E2 barrier solver), cholesky (E5 lock-based factorization), emfield (Figure 4 field computation), or session (S1 session/KV front-end)")
		size    = fs.Int("size", 20, "problem size n; for -app session, measured requests per worker strand")
		labels  = fs.String("labels", "broadcast", "session only: label configuration (broadcast, causal-scoped, or hybrid; same on every node)")
		steps   = fs.Int("steps", 10, "time steps for -app emfield")
		scoped  = fs.Bool("scoped", false, "emfield only: register causal-scoped placement so each boundary update ships to its one reader instead of broadcasting (must be set on every node)")
		seed    = fs.Int64("seed", 7, "deterministic problem seed (same on every node)")
		prop    = fs.String("propagation", "lazy", "critical-section propagation: eager, lazy, or demand")
		manager = fs.Int("manager", 0, "node hosting the lock and barrier managers")
		batch   = fs.Int("batch", 0, "update outbox width: coalesce up to this many writes per frame (0 = off)")
		metrics = fs.Bool("metrics", false, "exchange per-node transport stats through the DSM and print merged fleet-wide totals at exit (must be set on every node)")
		obsAddr = fs.String("obs", "", "serve the unified metrics registry as JSON at http://ADDR/metrics, alongside net/http/pprof")
		traceN  = fs.Int("trace", 0, "event-tracer ring capacity in slots (0 = tracing off; same on every node)")
		traceTo = fs.String("trace-out", "", "drain every node's tracer ring through the DSM at exit and write the merged trace to this file (requires -trace on every node; mixedtrace reads it)")
		verbose = fs.Bool("v", false, "log transport supervisor events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers := strings.Split(*peerCSV, ",")
	if *peerCSV == "" || len(peers) < 2 {
		return fmt.Errorf("-peers must list at least 2 comma-separated addresses")
	}
	if *id < 0 || *id >= len(peers) {
		return fmt.Errorf("-id %d out of range for %d peers", *id, len(peers))
	}
	mode, err := parsePropagation(*prop)
	if err != nil {
		return err
	}
	if *batch < 0 {
		return fmt.Errorf("-batch must be >= 0, got %d", *batch)
	}
	if *scoped && *app != "emfield" {
		return fmt.Errorf("-scoped requires -app emfield")
	}
	sessionMode, err := apps.ParseSessionMode(*labels)
	if err != nil {
		return err
	}
	if *labels != "broadcast" && *app != "session" {
		return fmt.Errorf("-labels requires -app session")
	}
	sessionCfg := apps.SessionConfig{
		Procs: len(peers),
		Ops:   *size, Warmup: *size/5 + 4,
		Seed: *seed,
		Mode: sessionMode,
	}

	cfg := tcp.Config{ID: *id, Peers: peers, Seed: *seed}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	tr, err := tcp.New(cfg)
	if err != nil {
		return err
	}
	if *traceTo != "" && *traceN <= 0 {
		return fmt.Errorf("-trace-out needs -trace N (a ring capacity) on every node")
	}
	pcfg := core.PeerConfig{
		ID: *id, Transport: tr, Propagation: mode, ManagerProc: *manager,
		TraceCapacity: *traceN,
	}
	if *batch > 0 {
		pcfg.Batch = dsm.BatchConfig{Enabled: true, MaxUpdates: *batch}
	}
	if *scoped {
		pcfg.Scope = apps.EMFieldScope(*size, len(peers), true)
	}
	if *app == "session" {
		pcfg.Scope = apps.SessionScope(sessionCfg)
	}
	peer, err := core.NewPeer(pcfg)
	if err != nil {
		tr.Close()
		return err
	}
	// Drain the outbound channels before shutdown: the last barrier release
	// or lock grant may still be unacked, and a peer that exits early would
	// otherwise strand the others.
	defer peer.Close()
	defer tr.Flush(5 * time.Second)

	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return fmt.Errorf("-obs %s: %w", *obsAddr, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", peer.Registry())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(out, "node %d: obs endpoint on http://%s (/metrics, /debug/pprof/)\n",
			*id, ln.Addr())
	}

	start := time.Now()
	var verr error
	var sessionRes *apps.SessionProcResult
	switch *app {
	case "solve":
		verr = runSolve(out, peer.Proc(), *size, *seed)
	case "cholesky":
		verr = runCholesky(out, peer.Proc(), *size, *seed)
	case "emfield":
		verr = runEMField(out, peer.Proc(), *size, *steps, *seed, *scoped)
	case "session":
		sessionRes, verr = runSession(out, peer.Proc(), sessionCfg)
	default:
		return fmt.Errorf("unknown app %q (want solve, cholesky, emfield, or session)", *app)
	}
	if verr != nil {
		return verr
	}
	s := peer.NetStats()
	fmt.Fprintf(out, "node %d: done in %v; sent %d msgs / %d bytes\n",
		*id, time.Since(start).Round(time.Millisecond), s.MessagesSent, s.BytesSent)
	if *traceTo != "" {
		snap := peer.Tracer().Snapshot()
		snap.Tag = *app
		if *app == "session" {
			snap.Tag = *app + "/" + sessionMode.String()
		}
		snaps, err := drainFleetTrace(peer.Proc(), snap)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceTo, obs.EncodeTrace(snaps), 0o644); err != nil {
			return fmt.Errorf("write fleet trace: %w", err)
		}
		fmt.Fprintf(out, "node %d: fleet trace: %d node snapshots -> %s (read with mixedtrace)\n",
			*id, len(snaps), *traceTo)
	}
	if *metrics {
		hists := map[string]*hist.Histogram{}
		if sessionRes != nil {
			hists["read"] = sessionRes.Read
			hists["write"] = sessionRes.Write
			hists["vis"] = sessionRes.Vis
		}
		if err := printFleetMetrics(out, peer.Proc(), s, peer.Proc().MemStats(), hists); err != nil {
			return err
		}
	}
	return nil
}

// nodeMetrics is one node's part of the -metrics exchange: its transport
// and memory counters, as their subsystems declare them, and its latency
// histograms in hist's binary form.
type nodeMetrics struct {
	Net   transport.Stats
	Mem   dsm.Stats
	Hists map[string][]byte
}

// fleetMetrics is every node's nodeMetrics merged: message and byte totals
// per kind, the malformed-update count, and per name the histogram of every
// node's samples pooled.
type fleetMetrics struct {
	Msgs, Bytes uint64
	PerKind     map[string]uint64
	KindBytes   map[string]uint64
	Malformed   uint64
	Hists       map[string]*hist.Histogram
}

// exchangeMetrics publishes this node's counters and histograms through the
// memory itself and merges every node's. The snapshots are taken before the
// call, so the exchange's own traffic is excluded. A nil histogram publishes
// an empty one. Because bucket counts are exact, each merged histogram's
// percentiles are exactly the percentiles of the pooled per-node samples.
func exchangeMetrics(p core.Process, s transport.Stats, mem dsm.Stats, hists map[string]*hist.Histogram) (fleetMetrics, error) {
	mine := nodeMetrics{Net: s, Mem: mem, Hists: make(map[string][]byte, len(hists))}
	for name, h := range hists {
		if h == nil {
			h = hist.New()
		}
		mine.Hists[name] = h.AppendBinary(nil)
	}
	blob, err := json.Marshal(mine)
	if err != nil {
		return fleetMetrics{}, err
	}
	blobs, err := exchange(p, "metrics", blob)
	if err != nil {
		return fleetMetrics{}, err
	}
	fleet := fleetMetrics{PerKind: map[string]uint64{}, KindBytes: map[string]uint64{}, Hists: map[string]*hist.Histogram{}}
	for id, b := range blobs {
		var m nodeMetrics
		if err := json.Unmarshal(b, &m); err != nil {
			return fleetMetrics{}, fmt.Errorf("metrics from node %d: %w", id, err)
		}
		fleet.Msgs += m.Net.MessagesSent
		fleet.Bytes += m.Net.BytesSent
		for k, v := range m.Net.PerKind {
			fleet.PerKind[k] += v
			fleet.KindBytes[k] += m.Net.PerKindBytes[k]
		}
		fleet.Malformed += m.Mem.MalformedUpdates
		for name, data := range m.Hists {
			h := hist.New()
			if err := h.UnmarshalBinary(data); err != nil {
				return fleetMetrics{}, fmt.Errorf("fleet %s histogram from node %d: %w", name, id, err)
			}
			if fleet.Hists[name] == nil {
				fleet.Hists[name] = hist.New()
			}
			fleet.Hists[name].Merge(h)
		}
	}
	return fleet, nil
}

// printFleetMetrics exchanges the node's metrics and prints the fleet-wide
// rows: totals, every kind that was sent and every histogram that has
// samples, each in sorted order, so every node prints the same rows. Every
// node must run with -metrics or the exchange's barrier deadlocks the fleet.
func printFleetMetrics(out io.Writer, p core.Process, s transport.Stats, mem dsm.Stats, hists map[string]*hist.Histogram) error {
	fleet, err := exchangeMetrics(p, s, mem, hists)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "node %d: fleet totals: %d msgs / %d bytes\n", p.ID(), fleet.Msgs, fleet.Bytes)
	for _, k := range sortedKeys(fleet.PerKind) {
		fmt.Fprintf(out, "node %d: fleet %-12s %6d msgs / %8d bytes\n", p.ID(), k, fleet.PerKind[k], fleet.KindBytes[k])
	}
	fmt.Fprintf(out, "node %d: fleet malformed-updates: %d\n", p.ID(), fleet.Malformed)
	for _, name := range sortedKeys(fleet.Hists) {
		if h := fleet.Hists[name]; h.Count() > 0 {
			fmt.Fprintf(out, "node %d: fleet %-5s latency: %s\n", p.ID(), name, h.Summary())
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exchange gives every node every node's blob, in node order, through the
// memory itself: each node packs its blob into int64 cells
// (obs.BytesToCells) and writes them under <prefix>/<id>/..., a barrier
// guarantees every cell is applied everywhere before release, and then each
// node reads all nodes' cells back. Every node must call it with the same
// prefix or the barrier deadlocks the fleet.
func exchange(p core.Process, prefix string, blob []byte) ([][]byte, error) {
	me := prefix + "/" + strconv.Itoa(p.ID()) + "/"
	cells := obs.BytesToCells(blob)
	p.Write(me+"n", int64(len(cells)))
	for i, c := range cells {
		p.Write(me+strconv.Itoa(i), c)
	}
	p.Barrier()

	blobs := make([][]byte, p.N())
	for id := range blobs {
		node := prefix + "/" + strconv.Itoa(id) + "/"
		cells := make([]int64, p.ReadPRAM(node+"n"))
		for i := range cells {
			cells[i] = p.ReadPRAM(node + strconv.Itoa(i))
		}
		b, err := obs.CellsToBytes(cells)
		if err != nil {
			return nil, fmt.Errorf("%s cells from node %d: %w", prefix, id, err)
		}
		blobs[id] = b
	}
	return blobs, nil
}

// drainFleetTrace merges every node's tracer ring through one exchange: each
// node snapshots its ring before calling this, so the drain's own writes
// never trace themselves. Every node must run with -trace-out. A busy ring
// encodes to tens of thousands of cells, so run the fleet with -batch to
// coalesce the drain's writes into wide frames.
func drainFleetTrace(p core.Process, snap *obs.Snapshot) ([]*obs.Snapshot, error) {
	blobs, err := exchange(p, "obs", obs.AppendSnapshot(nil, snap))
	if err != nil {
		return nil, err
	}
	snaps := make([]*obs.Snapshot, len(blobs))
	for id, b := range blobs {
		if snaps[id], _, err = obs.DecodeSnapshot(b); err != nil {
			return nil, fmt.Errorf("trace snapshot from node %d: %w", id, err)
		}
	}
	return snaps, nil
}

func parsePropagation(s string) (syncmgr.PropagationMode, error) {
	switch s {
	case "eager":
		return syncmgr.Eager, nil
	case "lazy":
		return syncmgr.Lazy, nil
	case "demand":
		return syncmgr.DemandDriven, nil
	}
	return 0, fmt.Errorf("unknown propagation %q (want eager, lazy, or demand)", s)
}

// runSolve runs the Figure 2 barrier solver and verifies the distributed
// solution against direct Gaussian elimination of the same instance.
func runSolve(out io.Writer, p core.Process, n int, seed int64) error {
	ls := apps.GenDiagDominant(n, seed)
	res := apps.SolveBarrier(p, ls, apps.SolveOptions{Tol: 1e-9})
	if !res.Converged {
		return fmt.Errorf("solver did not converge in %d iterations", res.Iters)
	}
	direct, err := ls.SolveDirect()
	if err != nil {
		return fmt.Errorf("direct reference: %w", err)
	}
	if d := apps.MaxAbsDiff(res.X, direct); d > 1e-7 {
		return fmt.Errorf("distributed solution differs from direct by %v", d)
	}
	fmt.Fprintf(out, "node %d: solve n=%d converged in %d iters, max |x-x*| within 1e-7\n",
		p.ID(), n, res.Iters)
	return nil
}

// runEMField runs the Figure 4 field computation and verifies this node's
// slab against the sequential reference, which must match bit-exactly (the
// distributed program performs the same float operations in the same order).
// With scoped placement each boundary publish travels point to point with
// causal reads; without it, updates broadcast and boundary reads are PRAM.
func runEMField(out io.Writer, p core.Process, size, steps int, seed int64, scoped bool) error {
	prob := apps.GenEMProblem(size, steps, seed)
	opts := apps.SolveOptions{}
	if scoped {
		opts.ReadLabel = history.LabelCausal
	}
	res := apps.SolveEMField(p, prob, opts)
	refE, refH := prob.SolveSequential()
	for i := res.Lo; i < res.Hi; i++ {
		if res.E[i-res.Lo] != refE[i] || res.H[i-res.Lo] != refH[i] {
			return fmt.Errorf("emfield slab [%d,%d) diverged from the sequential reference at %d", res.Lo, res.Hi, i)
		}
	}
	mode := "broadcast"
	if scoped {
		mode = "causal-scoped"
	}
	fmt.Fprintf(out, "node %d: emfield grid=%d steps=%d (%s) matches sequential bit-exactly\n",
		p.ID(), size, steps, mode)
	return nil
}

// runSession runs the S1 session/KV front-end: every node serves its worker
// strands (plus visibility probers for its peers' flagged writes) and then
// verifies the fleet's PRAM aggregate counters against the replay-predicted
// values — every node computes the expected totals locally from the seed, so
// no node needs a referee.
func runSession(out io.Writer, p core.Process, cfg apps.SessionConfig) (*apps.SessionProcResult, error) {
	res := apps.ServeSessions(p, cfg)
	if err := apps.VerifySessionCounters(p, cfg); err != nil {
		return nil, err
	}
	c := cfg.WithDefaults()
	c.Procs = p.N()
	fmt.Fprintf(out, "node %d: session (%s) fp=%016x counters verified; read[%s] write[%s] vis[%s]\n",
		p.ID(), c.Mode, c.WorkloadFingerprint(), res.Read.Summary(), res.Write.Summary(), res.Vis.Summary())
	return res, nil
}

// runCholesky runs the Figure 5 lock-based sparse Cholesky factorization and
// verifies the factor against the sequential algorithm.
func runCholesky(out io.Writer, p core.Process, n int, seed int64) error {
	m := apps.GenSparseSPD(n, 0.3, seed)
	res := apps.CholeskyLocks(p, m, apps.SolveOptions{})
	ref, err := m.CholeskySequential()
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	if d := m.FactorError(res.L, ref); d > 1e-9 {
		return fmt.Errorf("distributed factor differs from sequential by %v", d)
	}
	fmt.Fprintf(out, "node %d: cholesky n=%d factor matches sequential within 1e-9\n", p.ID(), n)
	return nil
}
