package bench

import (
	"fmt"
	"strings"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/hist"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// Experiment S1: the serving subsystem. The session/KV front-end runs under
// a seeded closed- or open-loop load at several offered-load points and
// under the three label/placement configurations, and each cell reports the
// per-label tail latencies (read, write-issue, and cross-process
// write-visibility p50/p99/p999). The claim under test is the serving-side
// restatement of the paper's economics: labeling the session data as causal
// scopes (partial replication with dependency matrices) must beat labeling
// everything causal-broadcast on tail write-visibility at high load, because
// the scoped configuration ships each session update to one follower
// instead of queueing a copy behind every pair's traffic.

// ServingCell is one (mode x offered-load) measurement of S1.
type ServingCell struct {
	// Mode is the label/placement configuration name.
	Mode string
	// Rate is the per-strand offered load in requests/second; 0 means
	// closed-loop (each strand issues as fast as completions allow), the
	// highest load point.
	Rate float64
	// Read, Write, and Vis are the fleet-merged measured-phase latency
	// summaries: read latency, write-issue latency, and cross-process
	// write-visibility latency.
	Read, Write, Vis hist.Summary
	// UpdateMsgs is the total update-message count across the fleet.
	UpdateMsgs uint64
	// Elapsed is the wall time of the whole cell (warmup included).
	Elapsed time.Duration
	// Fingerprint hashes the cell's full request workload; equal
	// fingerprints across runs or substrates prove identical workloads.
	Fingerprint uint64
}

// ServingResult is experiment S1 on one substrate.
type ServingResult struct {
	// Transport names the substrate: "sim" or "tcp".
	Transport string
	// Procs, Workers, Ops, Warmup, and Seed echo the configuration.
	Procs, Workers, Ops, Warmup int
	Seed                        int64
	// Cells holds one entry per (rate, mode), rates outer, modes inner.
	Cells []ServingCell
	// Traces holds one tracer snapshot per (cell, process) when the sweep
	// ran with ServingOptions.TraceCapacity set: every snapshot of a cell
	// shares a Tag of the form "<transport>/<mode>@<load>", which is how
	// the causal-path explainer groups a fleet's rings into one run.
	Traces []*obs.Snapshot
}

// String renders the result as a report table.
func (r ServingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving (%s): procs=%d workers=%d ops=%d warmup=%d seed=%d\n",
		r.Transport, r.Procs, r.Workers, r.Ops, r.Warmup, r.Seed)
	for _, c := range r.Cells {
		load := "closed-loop"
		if c.Rate > 0 {
			load = fmt.Sprintf("%.0f req/s", c.Rate)
		}
		fmt.Fprintf(&b, "  %-14s %-12s msgs=%-6d read[%s] write[%s] vis[%s]\n",
			c.Mode, load, c.UpdateMsgs, c.Read, c.Write, c.Vis)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ServingOptions configures the S1 sweep.
type ServingOptions struct {
	// Procs is the fleet size (>= 2 for visibility probes).
	Procs int
	// Workers is the number of request strands per process.
	Workers int
	// Ops and Warmup are the measured and unmeasured requests per strand.
	Ops, Warmup int
	// Rates is the offered-load sweep, requests/second per strand; 0 is
	// closed-loop and should come last as the highest load point.
	Rates []float64
	// Modes is the label-configuration sweep.
	Modes []apps.SessionMode
	// Substrate is what every cell's fleet runs on. On the simulated fabric
	// a zero latency model is replaced by DefaultLatency: the sweep is about
	// queueing, which immediate delivery would erase.
	Substrate Substrate
	// Seed fixes the workload.
	Seed int64
	// TraceCapacity, when positive, runs every cell with per-node event
	// tracers of this ring size (core.Config.TraceCapacity) and collects
	// the per-process snapshots into ServingResult.Traces. Size the ring to
	// the cell (a slot per event; a traced write costs a handful) or the
	// oldest chain anchors wrap and the explainer reports incompletes.
	TraceCapacity int
}

func (o ServingOptions) withDefaults() ServingOptions {
	if o.Procs == 0 {
		o.Procs = 4
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Ops == 0 {
		o.Ops = 120
	}
	if o.Warmup == 0 {
		o.Warmup = 20
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{500, 2000, 0}
	}
	if len(o.Modes) == 0 {
		o.Modes = []apps.SessionMode{apps.SessionBroadcast, apps.SessionCausalScoped, apps.SessionHybrid}
	}
	if o.Substrate.Latency == (network.LatencyModel{}) {
		o.Substrate.Latency = DefaultLatency
	}
	return o
}

// sessionConfig builds the session workload for one cell. Aggregate bumps
// are kept sparse (every 8th request) so the broadcast-versus-scoped
// comparison measures session traffic, which is the placement under test,
// rather than counter traffic common to both.
func (o ServingOptions) sessionConfig(mode apps.SessionMode, rate float64) apps.SessionConfig {
	return apps.SessionConfig{
		Procs:   o.Procs,
		Workers: o.Workers,
		Ops:     o.Ops, Warmup: o.Warmup,
		Rate:     rate,
		AggEvery: 8, AggReadEvery: 16,
		Seed: o.Seed,
		Mode: mode,
	}
}

// servingTag names one cell's trace run: transport, mode, and load point.
func servingTag(transport string, cfg apps.SessionConfig) string {
	load := "closed"
	if cfg.Rate > 0 {
		load = fmt.Sprintf("%.0frps", cfg.Rate)
	}
	return fmt.Sprintf("%s/%s@%s", transport, cfg.Mode, load)
}

// mergeServingCell folds per-process results into one cell.
func mergeServingCell(cfg apps.SessionConfig, results []*apps.SessionProcResult) ServingCell {
	read, write, vis := hist.New(), hist.New(), hist.New()
	for _, r := range results {
		read.Merge(r.Read)
		write.Merge(r.Write)
		vis.Merge(r.Vis)
	}
	return ServingCell{
		Mode:        cfg.Mode.String(),
		Rate:        cfg.Rate,
		Read:        read.Summary(),
		Write:       write.Summary(),
		Vis:         vis.Summary(),
		Fingerprint: cfg.WorkloadFingerprint(),
	}
}

// RunServing is S1: for every offered-load point and every label
// configuration, run the session front-end on a fresh system over
// opt.Substrate, verify the replay-predicted aggregate counters on every
// process, and report the fleet-merged latency summaries. Over tcp the
// visibility latencies include real kernel queueing and the update counts are
// actual frames; the seeded workload — and thus every cell's fingerprint — is
// the same on either substrate.
func RunServing(opt ServingOptions) (ServingResult, error) {
	o := opt.withDefaults()
	out := ServingResult{
		Transport: o.Substrate.String(),
		Procs:     o.Procs, Workers: o.Workers, Ops: o.Ops, Warmup: o.Warmup,
		Seed: o.Seed,
	}
	for _, rate := range o.Rates {
		for _, mode := range o.Modes {
			cfg := o.sessionConfig(mode, rate)
			sys, err := o.Substrate.NewSystem(core.Config{
				Procs:         o.Procs,
				Seed:          o.Seed,
				Placement:     apps.SessionScope(cfg),
				TraceCapacity: o.TraceCapacity,
			})
			if err != nil {
				return out, fmt.Errorf("serving (%v, rate %.0f): %w", mode, rate, err)
			}
			results := make([]*apps.SessionProcResult, o.Procs)
			verifyErrs := make([]error, o.Procs)
			start := time.Now()
			sys.Run(func(p *core.Proc) {
				results[p.ID()] = apps.ServeSessions(p, cfg)
				verifyErrs[p.ID()] = apps.VerifySessionCounters(p, cfg)
			})
			elapsed := time.Since(start)
			msgs := sys.NetStats().PerKind[dsmUpdateKind]
			if o.TraceCapacity > 0 {
				tag := servingTag(out.Transport, cfg)
				for i := 0; i < o.Procs; i++ {
					s := sys.Proc(i).Tracer().Snapshot()
					s.Tag = tag
					out.Traces = append(out.Traces, s)
				}
			}
			sys.Close()
			for _, err := range verifyErrs {
				if err != nil {
					return out, fmt.Errorf("serving (%v, rate %.0f): %w", mode, rate, err)
				}
			}
			cell := mergeServingCell(cfg, results)
			cell.UpdateMsgs = msgs
			cell.Elapsed = elapsed
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}
