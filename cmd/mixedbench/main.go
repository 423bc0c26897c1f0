// Command mixedbench regenerates every experiment of EXPERIMENTS.md: the
// paper's Figures 1–5 and the qualitative claims of Sections 1–7, the
// ablations, the serving sweep, and the perf grid.
//
// Usage:
//
//	mixedbench                 # run every experiment
//	mixedbench -exp e5         # run one experiment
//	mixedbench -quick          # smaller problem sizes, zero network latency
//	mixedbench -procs 8        # override the process count
//	mixedbench -json           # one JSON line per measured row
//	mixedbench -exp e8s                 # per-label access-latency curve
//	mixedbench -exp e8s -transport tcp  # the same curve over real TCP
//	mixedbench -exp a3 -transport tcp   # placement ablation over real TCP
//	mixedbench -exp s1                  # serving tail-latency sweep (also tcp)
//	mixedbench -exp s1 -trace s1.mxtr   # + per-node event traces, for mixedtrace
//
// -transport is resolved once into a bench.Substrate that the tcp-capable
// experiments (marked in the experiment table) receive as data; each has one
// runner for both substrates.
//
// Output is one section per experiment with the measured rows and the
// paper's corresponding claim, so EXPERIMENTS.md can be checked against a
// fresh run. With -json each measured row becomes one line of the form
// {"exp":..., "transport":..., "type":..., "data":{...}} and the claim prose
// is suppressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mixedmem/internal/bench"
	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mixedbench:", err)
		os.Exit(1)
	}
}

type config struct {
	exp       string
	quick     bool
	sweep     bool
	procs     int
	seed      int64
	jsonOut   bool
	transport string
	// sub is -transport resolved, once: what the tcp-capable experiments'
	// deployments run on.
	sub      bench.Substrate
	batch    int
	trace    string
	traceCap int
	latency  network.LatencyModel

	out io.Writer
	// cur is the id of the experiment currently running, set by the
	// dispatch loop so emit can label rows.
	cur string
}

// emit reports one measured row: an indented String() line in text mode, a
// self-describing JSON line in -json mode.
func (c *config) emit(row any) error {
	if !c.jsonOut {
		_, err := fmt.Fprintln(c.out, " ", row)
		return err
	}
	rec := struct {
		Exp       string `json:"exp"`
		Transport string `json:"transport"`
		Type      string `json:"type"`
		Data      any    `json:"data"`
	}{
		Exp:       c.cur,
		Transport: c.transport,
		Type:      strings.TrimPrefix(fmt.Sprintf("%T", row), "bench."),
		Data:      row,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("marshal %s row: %w", c.cur, err)
	}
	_, err = fmt.Fprintln(c.out, string(b))
	return err
}

// claim prints the paper claim the experiment checks; suppressed in -json
// mode, where only machine-readable rows appear.
func (c *config) claim(lines ...string) {
	if c.jsonOut {
		return
	}
	for _, l := range lines {
		fmt.Fprintln(c.out, " ", l)
	}
}

type experiment struct {
	id, title string
	run       func(*config) error
	// tcp marks experiments whose runner takes the substrate as data, and so
	// run over real sockets with -transport tcp. The rest are sim-only: they
	// need transport.Faults or a modeled latency, which only the fabric has.
	tcp bool
}

var experiments = []experiment{
	{"e1", "Figure 1: lock and barrier synchronization orders", runE1, false},
	{"e2", "Figure 2 vs Figure 3: barrier solver vs handshake solver", runE2, false},
	{"e3", "Section 5.1: PRAM reads are insufficient for handshaking", runE3, false},
	{"e4", "Figure 4: electromagnetic field computation (PRAM + barriers)", runE4, false},
	{"e5", "Figure 5 / Section 7: Cholesky with locks vs counter objects", runE5, false},
	{"e6", "Section 6: eager vs lazy vs demand-driven propagation", runE6, false},
	{"e7", "Section 7: asynchronous Gauss-Seidel converges under PRAM", runE7, false},
	{"e8s", "Sections 1/3.2: cost-of-consistency curve over the label lattice (slow/PRAM/causal/SC)", runE8S, true},
	{"e9", "Theorem 1 corollaries: random programs are SC", runE9, false},
	{"e10", "Section 2: producer/consumer via awaits vs lock polling", runE10, false},
	{"a1", "Ablation: timestamp elision for PRAM-consistent programs (Section 6)", runA1, false},
	{"a2", "Ablation: where each propagation mode pays (asymmetric links)", runA2, false},
	{"a3", "Ablation: access-pattern placement vs broadcast (Section 6)", runA3, true},
	{"s1", "Serving: session/KV tail latency per label configuration under load", runS1, true},
	{"perf", "Perf trajectory: hot-path ns/op, allocs/op, and contended throughput", runPerf, true},
}

// experimentIDs lists the ids of the experiments — only those that run with
// -transport tcp when tcpOnly is set — joined by sep. The flags' help texts
// and the guards' errors are built from it so none can drift from the table.
func experimentIDs(sep string, tcpOnly bool) string {
	var ids []string
	for _, e := range experiments {
		if e.tcp || !tcpOnly {
			ids = append(ids, e.id)
		}
	}
	return strings.Join(ids, sep)
}

func run(args []string) error { return runTo(args, os.Stdout) }

func runTo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mixedbench", flag.ContinueOnError)
	cfg := config{out: out}
	fs.StringVar(&cfg.exp, "exp", "all", "experiment to run: "+experimentIDs(", ", false)+", or all")
	fs.BoolVar(&cfg.quick, "quick", false, "small sizes and zero latency")
	fs.BoolVar(&cfg.sweep, "sweep", false, "sweep process counts (2, 4, 8) in e2 and e5")
	fs.IntVar(&cfg.procs, "procs", 4, "number of processes")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit one JSON line per measured row")
	fs.StringVar(&cfg.transport, "transport", "sim",
		"message transport: sim (simulated fabric) or tcp (real kernel sockets; "+experimentIDs(", ", true)+" only)")
	fs.IntVar(&cfg.batch, "batch", 32,
		"update-outbox batch size for e6's batched rows (MaxUpdates threshold)")
	fs.StringVar(&cfg.trace, "trace", "",
		"write the s1 sweep's merged event trace to this file (enables per-node tracers; mixedtrace reads it)")
	fs.IntVar(&cfg.traceCap, "trace-cap", 1<<15,
		"per-node tracer ring capacity used with -trace (slots, rounded up to a power of two)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.trace != "" && cfg.exp != "s1" {
		return fmt.Errorf("-trace is served by the s1 experiment: run with -exp s1")
	}
	if cfg.batch < 1 {
		return fmt.Errorf("-batch %d: batch size must be at least 1", cfg.batch)
	}
	if cfg.procs < 2 {
		return fmt.Errorf("-procs %d: the experiments need at least 2 processes (coordinator + worker)", cfg.procs)
	}
	cfg.latency = bench.DefaultLatency
	if cfg.quick {
		cfg.latency = network.LatencyModel{}
	}

	want := strings.ToLower(cfg.exp)
	switch cfg.transport {
	case "sim":
		cfg.sub = bench.Substrate{Latency: cfg.latency}
	case "tcp":
		cfg.sub = bench.Substrate{TCP: true}
		capable := false
		for _, e := range experiments {
			capable = capable || e.tcp && want == e.id
		}
		if !capable {
			return fmt.Errorf("-transport tcp needs one tcp-capable experiment: run with -exp %s",
				experimentIDs(", -exp ", true))
		}
	default:
		return fmt.Errorf("unknown transport %q (want sim or tcp)", cfg.transport)
	}
	matched := false
	for _, e := range experiments {
		if want != "all" && want != e.id {
			continue
		}
		matched = true
		cfg.cur = e.id
		if !cfg.jsonOut {
			fmt.Fprintf(cfg.out, "=== %s: %s ===\n", strings.ToUpper(e.id), e.title)
		}
		if err := e.run(&cfg); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if !cfg.jsonOut {
			fmt.Fprintln(cfg.out)
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want %s, or all)", cfg.exp, experimentIDs(", ", false))
	}
	return nil
}

func runE10(cfg *config) error {
	items := 30
	if cfg.quick {
		items = 10
	}
	r, err := bench.RunPipelineComparison(items, cfg.procs, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim (Section 2): await statements capture the producer/consumer paradigm",
		"in an efficient manner")
	return nil
}

func runA1(cfg *config) error {
	n := 24
	if cfg.quick {
		n = 12
	}
	r, err := bench.RunTimestampAblation(n, cfg.procs, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim (Section 6): the timestamp overhead can be avoided when all reads",
		"following a write are PRAM operations (the Corollary 2 program class)")
	return nil
}

func runA2(cfg *config) error {
	noise, factor := 10, 100.0
	lat := cfg.latency
	if lat.Fixed == 0 {
		lat = network.LatencyModel{Fixed: 100 * time.Microsecond}
	}
	if cfg.quick {
		noise, factor = 5, 50
	}
	rows, err := bench.RunPropagationCostSweep(noise, factor, lat)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := cfg.emit(r); err != nil {
			return err
		}
	}
	cfg.claim("claim (Section 6): eager pays at release, lazy at acquire, demand-driven",
		"only at the first read of invalidated data")
	return nil
}

func runA3(cfg *config) error {
	size, steps := 96, 20
	if cfg.quick {
		size, steps = 32, 8
	}
	r, err := bench.RunPlacementAblation(size, steps, cfg.procs, cfg.sub, cfg.seed)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim (Section 6): broadcast overhead can be avoided with optimizations based",
		"on the access patterns of shared variables")
	return nil
}

func runS1(cfg *config) error {
	opt := bench.ServingOptions{
		Procs:     cfg.procs,
		Seed:      cfg.seed,
		Substrate: cfg.sub,
	}
	if cfg.trace != "" {
		opt.TraceCapacity = cfg.traceCap
	}
	if cfg.quick {
		opt.Workers = 2
		opt.Ops, opt.Warmup = 60, 12
		opt.Rates = []float64{1000, 4000, 0} // still three load points
		// A small nonzero model: -quick zeroes cfg.latency, but the serving
		// sweep is about queueing, which a zero model would erase entirely.
		opt.Substrate.Latency = network.LatencyModel{Fixed: 25 * time.Microsecond}
	}
	r, err := bench.RunServing(opt)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	if cfg.trace != "" {
		if err := os.WriteFile(cfg.trace, obs.EncodeTrace(r.Traces), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if !cfg.jsonOut {
			fmt.Fprintf(cfg.out, "  trace: %d snapshots -> %s (read with mixedtrace)\n",
				len(r.Traces), cfg.trace)
		}
	}
	cfg.claim("claim (Sections 5-6, serving restatement): labeling session state as causal",
		"scopes (partial replication) and aggregates as PRAM counter objects cuts",
		"update traffic and tail write-visibility latency versus labeling everything",
		"causal-broadcast, without changing any verdict of the checker")
	return nil
}

func runPerf(cfg *config) error {
	opt := bench.PerfOptions{Procs: cfg.procs}
	if cfg.quick {
		opt.Ops = 4000
	}
	r, err := bench.RunPerf(cfg.sub, opt)
	if err != nil {
		return err
	}
	for _, c := range r.Cells {
		if err := cfg.emit(c); err != nil {
			return err
		}
	}
	cfg.claim("claim (ROADMAP, raw speed): weaker labels must be cheaper in implementation,",
		"not just in protocol; the grid pins ns/op, allocs/op, and contended",
		"throughput so cmd/benchdiff can fail CI when a change regresses them")
	return nil
}

func runE1(cfg *config) error {
	r, err := bench.RunFigure1()
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim: the derived |->lock order satisfies the three properties of Section 3.1.1")
	return nil
}

func runE2(cfg *config) error {
	sizes := []int{16, 32}
	if cfg.quick {
		sizes = []int{12}
	}
	procCounts := []int{cfg.procs}
	if cfg.sweep {
		procCounts = []int{2, 4, 8}
	}
	for _, procs := range procCounts {
		for _, n := range sizes {
			r, err := bench.RunSolverComparison(n, procs, cfg.latency, cfg.seed)
			if err != nil {
				return err
			}
			if err := cfg.emit(r); err != nil {
				return err
			}
		}
	}
	rb, err := bench.RunRedBlack(16, cfg.procs, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	if err := cfg.emit(rb); err != nil {
		return err
	}
	cfg.claim("claim (Section 7): the barrier solver (Fig. 2) outperforms the handshake solver (Fig. 3);",
		"red-black Gauss-Seidel is a second Corollary 2 program with faster convergence")
	return nil
}

func runE3(cfg *config) error {
	r, err := bench.RunPRAMInsufficiency()
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim (Section 5.1): with PRAM reads, inconsistent (stale) estimate values can be read;",
		"causal reads cannot return them")
	return nil
}

func runE4(cfg *config) error {
	size, steps := 96, 30
	if cfg.quick {
		size, steps = 32, 10
	}
	r, err := bench.RunEMField(size, steps, cfg.procs, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	n2d := 32
	if cfg.quick {
		n2d = 16
	}
	r2, err := bench.RunEM2DField(n2d, steps/2, cfg.procs, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	if err := cfg.emit(r2); err != nil {
		return err
	}
	cfg.claim("claim (Figure 4): PRAM reads with barriers compute the fields exactly; the memory",
		"system provides the ghost copies")
	return nil
}

func runE5(cfg *config) error {
	sizes := []int{24, 40}
	if cfg.quick {
		sizes = []int{16}
	}
	procCounts := []int{cfg.procs}
	if cfg.sweep {
		procCounts = []int{2, 4, 8}
	}
	for _, procs := range procCounts {
		for _, n := range sizes {
			r, err := bench.RunCholeskyComparison(n, procs, 0.3, cfg.latency, cfg.seed)
			if err != nil {
				return err
			}
			if err := cfg.emit(r); err != nil {
				return err
			}
		}
	}
	cfg.claim("claim (Section 7): the counter-object algorithm outperforms the lock-based one significantly")
	return nil
}

func runE6(cfg *config) error {
	w := bench.PropagationWorkload{
		Procs:       cfg.procs,
		Handoffs:    10,
		WritesPerCS: 8,
		ReadBack:    false,
	}
	if cfg.quick {
		w.Handoffs, w.WritesPerCS = 4, 4
	}
	// Before rows: the three modes unbatched, as the experiment always ran.
	rs, err := bench.RunPropagationSweep(w, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	for _, r := range rs {
		if err := cfg.emit(r); err != nil {
			return err
		}
	}
	// After rows: the same three modes with the update outbox on at the
	// -batch threshold; update frames collapse by roughly WritesPerCS.
	wb := w
	wb.Batch = dsm.BatchConfig{Enabled: true, MaxUpdates: cfg.batch}
	rsb, err := bench.RunPropagationSweep(wb, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	for _, r := range rsb {
		if err := cfg.emit(r); err != nil {
			return err
		}
	}
	// Batch-size sweep on the lazy mode (the default), from off upward.
	sweep, err := bench.RunPropagationBatchSweep(
		syncmgr.Lazy, w, []int{0, 1, 4, 16, 64}, cfg.latency, cfg.seed)
	if err != nil {
		return err
	}
	for _, r := range sweep {
		if err := cfg.emit(r); err != nil {
			return err
		}
	}
	cfg.claim("claim (Section 6): eager pays flush traffic at release; lazy waits at acquire;",
		"demand-driven blocks only reads of invalidated locations; batching updates",
		"between synchronization points collapses per-write messages into one frame",
		"per destination per critical section (Munin's delayed update queue)")
	return nil
}

func runE7(cfg *config) error {
	rounds := []int{5, 20, 80}
	if cfg.quick {
		rounds = []int{5, 40}
	}
	for _, r := range rounds {
		res, err := bench.RunGaussSeidel(16, cfg.procs, r, cfg.seed)
		if err != nil {
			return err
		}
		if err := cfg.emit(res); err != nil {
			return err
		}
	}
	cfg.claim("claim (Section 7): asynchronous relaxation converges even with PRAM")
	return nil
}

func runE8S(cfg *config) error {
	ops := 300
	if cfg.quick {
		ops = 100
	}
	r, err := bench.RunLatencySpectrum(cfg.procs, ops, cfg.sub)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim (Sections 1, 3.2): weak reads/writes are local while sequential consistency",
		"pays a round trip per operation; cost is monotone in label strength — the weak labels",
		"share the broadcast path (slow sheds timestamp bytes) and stay local on either substrate,",
		"and SC pays a modeled round trip on sim, a kernel one over real sockets")
	return nil
}

func runE9(cfg *config) error {
	seeds := 10
	if cfg.quick {
		seeds = 4
	}
	r, err := bench.RunCorollaries(seeds)
	if err != nil {
		return err
	}
	if err := cfg.emit(r); err != nil {
		return err
	}
	cfg.claim("claim (Corollaries 1-2): entry-consistent programs with causal reads and",
		"PRAM-consistent programs with PRAM reads behave sequentially consistently")
	return nil
}
