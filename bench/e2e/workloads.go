package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/hist"
)

// Epoch sizes. They are part of the benchmark's definition: per-op cost
// depends on them (a fresh visibility-flag location costs a shard-map copy,
// so a longer session epoch is dearer per request), which is why a later
// change may not retune them.
type sizes struct {
	// Session front-end: requests per strand, saturated and open-loop.
	satOps, satWarmup   int
	openOps, openWarmup int
	openRate            float64 // requests/s per strand
	// Jacobi: unknowns and iterations per epoch.
	jacobiN, jacobiIters int
	// Cholesky: grid side (columns = side²) and factorizations per epoch.
	cholGrid, cholRuns int
	// Visibility probe, the paced phase: rounds per epoch on the sim fabric
	// and over tcp; a tenth as many again warm up first.
	probeSimOps, probeTCPOps int
}

var frozen = sizes{
	satOps: 30000, satWarmup: 3000,
	openOps: 8000, openWarmup: 800, openRate: 8000,
	jacobiN: 128, jacobiIters: 2000,
	cholGrid: 14, cholRuns: 5,
	probeSimOps: 40000, probeTCPOps: 4000,
}

// tiny is the size the tests run at.
var tiny = sizes{
	satOps: 400, satWarmup: 40,
	openOps: 200, openWarmup: 20, openRate: 4000,
	jacobiN: 16, jacobiIters: 30,
	cholGrid: 4, cholRuns: 1,
	probeSimOps: 100, probeTCPOps: 100,
}

// The phases an epoch can belong to. Every workload has the first two; the
// open-loop phase exists on the session workloads and runs only in the
// traced pass.
const (
	// phaseSaturated is the application, closed loop, as fast as one P
	// allows.
	phaseSaturated = "saturated"
	// phasePaced is the visibility probe on the workload's fleet
	// configuration, paced by its own acknowledgements.
	phasePaced = "paced"
	// phaseOpen is the session front-end driven open-loop at a fixed rate.
	phaseOpen = "open-loop"

	verifyTol = 1e-9
)

// epoch is the raw record of one fixed-work epoch on a fresh fleet.
type epoch struct {
	Phase  string `json:"phase"`
	Traced bool   `json:"traced"`
	// SetupS is everything before the epoch's first operation: problem and
	// placement generation, transports, processes.
	SetupS float64 `json:"setup_s"`
	// WallS and CPUS cover the whole application call on every process,
	// final barrier and in-program verification included.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	Ops   int64   `json:"ops"`
	Msgs  uint64  `json:"wire_msgs"`
	Bytes uint64  `json:"wire_bytes"`
	// Allocs is the heap-object count allocated during the call.
	Allocs uint64 `json:"allocs"`
	// VisP50US is the epoch's median write-to-visible latency (paced and
	// open-loop epochs).
	VisP50US float64 `json:"vis_p50_us,omitempty"`
	// NominalS is how long the epoch's arrival schedule is (open-loop only).
	NominalS float64 `json:"nominal_s,omitempty"`
	// Fingerprint hashes the epoch's generated input.
	Fingerprint uint64 `json:"fingerprint"`
	// Err is the failed check, if any; it fails every op of the epoch.
	Err string `json:"err,omitempty"`

	layers *layerSample
}

// workload is one named set of inputs. prepare generates everything that
// depends only on the seed (including the sequential reference results the
// epochs are checked against); the returned runner executes epochs.
type workload struct {
	name, why string
	// opUnit names what one op is.
	opUnit string
	// satNominalS and pacedNominalS are the sizing evidence for one epoch
	// of each phase on the reference VM (for session-bcast-tcp the mean,
	// its occasional slow epochs included); they only turn -seconds into
	// epoch counts.
	satNominalS, pacedNominalS float64
	// openLoop tells that the workload has an open-loop phase.
	openLoop bool
	prepare  func(seed int64, z sizes) (runner, error)
}

// runner executes one epoch of the given phase. A nil tracing state is the
// untraced measurement.
type runner interface {
	epoch(phase string, tr *tracing) epoch
}

var workloads = []workload{
	{
		name:        "session-bcast-tcp",
		why:         "causal broadcast over loopback TCP: one update, one encode, one frame, one syscall pair per destination per write; dsm issue/apply, codec and tcp do nearly all the work",
		opUnit:      "request",
		satNominalS: 0.70, pacedNominalS: 0.45, openLoop: true,
		prepare: func(seed int64, z sizes) (runner, error) {
			return newSessionRunner(seed, z, apps.SessionBroadcast, dsm.BatchConfig{}), nil
		},
	},
	{
		name:        "session-hybrid-batched-tcp",
		why:         "same trace, scoped sessions + PRAM-elided counters + 32-update outbox: tcp does little, the outbox/batch/dependency-matrix path most, so a codec or tcp gain should barely show here",
		opUnit:      "request",
		satNominalS: 0.35, pacedNominalS: 0.30, openLoop: true,
		prepare: func(seed int64, z sizes) (runner, error) {
			return newSessionRunner(seed, z, apps.SessionHybrid,
				dsm.BatchConfig{Enabled: true, MaxUpdates: 32}), nil
		},
	},
	{
		name:        "jacobi-barrier-sim",
		why:         "Figure 2 on the sim fabric, PRAM-only: three PRAM reads per write and two barriers per iteration, so syncmgr barrier rounds and the fabric dominate and codec/tcp are bypassed",
		opUnit:      "iteration",
		satNominalS: 0.30, pacedNominalS: 0.25,
		prepare: prepareJacobi,
	},
	{
		name:        "cholesky-locks-sim",
		why:         "Figure 5 on the sim fabric: lock acquire/release with lazy write-set propagation, causal reads, invalidation stalls and awaits; barriers do almost nothing",
		opUnit:      "column",
		satNominalS: 0.35, pacedNominalS: 0.35,
		prepare: prepareCholesky,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- session front-end over loopback TCP ----

type sessionRunner struct {
	z     sizes
	seed  int64
	mode  apps.SessionMode
	batch dsm.BatchConfig
	probe probe
}

func newSessionRunner(seed int64, z sizes, mode apps.SessionMode, batch dsm.BatchConfig) *sessionRunner {
	r := &sessionRunner{z: z, seed: seed, mode: mode, batch: batch}
	// The probe runs on the fleet the saturated phase runs on.
	r.probe = probe{rounds: z.probeTCPOps, seed: seed,
		fleet: func() fleetConfig { return r.fleetConfig(r.config(phaseSaturated)) }}
	return r
}

func (r *sessionRunner) config(phase string) apps.SessionConfig {
	cfg := apps.SessionConfig{
		Procs: fleetProcs, Workers: 1, Sessions: 16, SessionKeys: 16,
		AggEvery: 8, AggReadEvery: 16, VisEvery: 16,
		Seed: scramble(r.seed), Mode: r.mode,
		Ops: r.z.satOps, Warmup: r.z.satWarmup,
	}
	if phase == phaseOpen {
		cfg.Ops, cfg.Warmup, cfg.Rate = r.z.openOps, r.z.openWarmup, r.z.openRate
	}
	return cfg
}

// fleetConfig is the workload's deployment: loopback TCP, the mode's
// placement for the given trace, the workload's batching.
func (r *sessionRunner) fleetConfig(cfg apps.SessionConfig) fleetConfig {
	return fleetConfig{tcp: true, scope: apps.SessionScope(cfg), batch: r.batch}
}

func (r *sessionRunner) epoch(phase string, tr *tracing) epoch {
	if phase == phasePaced {
		return r.probe.epoch(tr)
	}
	cfg := r.config(phase)
	e := epoch{Phase: phase, Traced: tr != nil,
		Ops:         int64(cfg.Procs * cfg.Workers * (cfg.Ops + cfg.Warmup)),
		Fingerprint: cfg.WorkloadFingerprint()}
	if cfg.Rate > 0 {
		e.NominalS = float64(cfg.Ops+cfg.Warmup) / cfg.Rate
	}

	t0 := time.Now()
	fl, err := newFleet(r.fleetConfig(cfg), tr)
	e.SetupS = time.Since(t0).Seconds()
	if err != nil {
		e.Err = err.Error()
		return e
	}
	defer fl.close()

	results := make([]*apps.SessionProcResult, fleetProcs)
	c := timed(func() {
		err = fl.run(tr, func(p core.Process) error {
			results[p.ID()] = apps.ServeSessions(p, cfg)
			return apps.VerifySessionCounters(p, cfg)
		})
	})
	e.charge(c, fl, tr)
	if err == nil {
		if d := fl.tcpDiag(); d.DecodeErrors != 0 {
			err = fmt.Errorf("tcp dropped %d undecodable frames", d.DecodeErrors)
		}
	}
	if err != nil {
		e.Err = err.Error()
		return e
	}
	op, vis := hist.New(), hist.New()
	for _, res := range results {
		op.Merge(res.Read)
		op.Merge(res.Write)
		vis.Merge(res.Vis)
	}
	if vis.Count() == 0 {
		e.Err = "no visibility probe completed"
		return e
	}
	us := func(h *hist.Histogram, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	e.VisP50US = us(vis, 0.5)
	e.layers.visP99US = us(vis, 0.99)
	e.layers.opP50US, e.layers.opP99US = us(op, 0.5), us(op, 0.99)
	return e
}

// charge records what the timed call cost and what the fleet put on the
// wire, and collects the per-layer sample.
func (e *epoch) charge(c cost, fl *fleet, tr *tracing) {
	w := fl.wire()
	e.WallS += c.wall
	e.CPUS += c.cpu
	e.Allocs += c.allocs
	e.Msgs += w.MessagesSent
	e.Bytes += w.BytesSent
	e.layers = readCounters(e.layers, fl, w, c)
	if tr != nil {
		tr.collect(e.layers, fl)
	}
}

// ---- Jacobi with barriers on the sim fabric ----

type jacobiRunner struct {
	z    sizes
	seed int64
	opts apps.SolveOptions
	ref  []float64 // sequential estimate after refIters iterations
	// refIters is the iteration count the reference was computed for.
	refIters int
	probe    probe
}

func prepareJacobi(seed int64, z sizes) (runner, error) {
	r := &jacobiRunner{z: z, seed: seed,
		// The tolerance is unreachable, so every epoch runs exactly
		// MaxIters iterations: fixed work.
		opts: apps.SolveOptions{Tol: 1e-300, MaxIters: z.jacobiIters},
		probe: probe{rounds: z.probeSimOps, seed: seed,
			fleet: func() fleetConfig { return fleetConfig{pramOnly: true} }}}
	r.ref, r.refIters = apps.GenDiagDominant(z.jacobiN, seed).
		SolveJacobiSequential(r.opts.Tol, r.opts.MaxIters)
	return r, nil
}

func (r *jacobiRunner) epoch(phase string, tr *tracing) epoch {
	if phase == phasePaced {
		return r.probe.epoch(tr)
	}
	e := epoch{Phase: phase, Traced: tr != nil}
	t0 := time.Now()
	ls := apps.GenDiagDominant(r.z.jacobiN, r.seed)
	fl, err := newFleet(fleetConfig{pramOnly: true}, tr)
	e.SetupS = time.Since(t0).Seconds()
	if err != nil {
		e.Err = err.Error()
		return e
	}
	defer fl.close()

	results := make([]apps.SolveResult, fleetProcs)
	c := timed(func() {
		err = fl.run(tr, func(p core.Process) error {
			results[p.ID()] = apps.SolveBarrier(p, ls, r.opts)
			return nil
		})
	})
	e.charge(c, fl, tr)
	e.Ops = int64(results[0].Iters)
	e.Fingerprint = hashFloats(append([][]float64{ls.B}, ls.A...)...)
	if err != nil {
		e.Err = err.Error()
		return e
	}
	for i, res := range results {
		if res.Iters != r.refIters {
			e.Err = fmt.Sprintf("proc %d ran %d iterations, sequential reference %d", i, res.Iters, r.refIters)
		} else if d := apps.MaxAbsDiff(res.X, r.ref); !(d <= verifyTol) {
			e.Err = fmt.Sprintf("proc %d: estimate differs from sequential Jacobi by %g", i, d)
		}
	}
	return e
}

// ---- Cholesky with locks on the sim fabric ----

type choleskyRunner struct {
	z     sizes
	seed  int64
	ref   [][]float64
	probe probe
}

// genCholesky is the workload's input: the 5-point grid Laplacian (the
// structure, and with it every message count, is fixed) with a seeded
// positive shift on the diagonal, which keeps it SPD and makes the numbers
// a function of the seed.
func genCholesky(z sizes, seed int64) *apps.SparseSPD {
	m := apps.GenGridSPD(z.cholGrid)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.A {
		m.A[i][i] += rng.Float64()
	}
	return m
}

func prepareCholesky(seed int64, z sizes) (runner, error) {
	ref, err := genCholesky(z, seed).CholeskySequential()
	if err != nil {
		return nil, err
	}
	return &choleskyRunner{z: z, seed: seed, ref: ref,
		probe: probe{rounds: z.probeSimOps, seed: seed,
			fleet: func() fleetConfig { return fleetConfig{} }}}, nil
}

func (r *choleskyRunner) epoch(phase string, tr *tracing) epoch {
	if phase == phasePaced {
		return r.probe.epoch(tr)
	}
	e := epoch{Phase: phase, Traced: tr != nil}
	for run := 0; run < r.z.cholRuns && e.Err == ""; run++ {
		r.factorize(&e, tr)
	}
	return e
}

// factorize adds one factorization on a fresh system to the epoch.
func (r *choleskyRunner) factorize(e *epoch, tr *tracing) {
	t0 := time.Now()
	m := genCholesky(r.z, r.seed)
	fl, err := newFleet(fleetConfig{}, tr)
	e.SetupS += time.Since(t0).Seconds()
	if err != nil {
		e.Err = err.Error()
		return
	}
	defer fl.close()

	results := make([]apps.CholeskyResult, fleetProcs)
	c := timed(func() {
		err = fl.run(tr, func(p core.Process) error {
			results[p.ID()] = apps.CholeskyLocks(p, m, apps.SolveOptions{})
			return nil
		})
	})
	e.charge(c, fl, tr)
	e.Ops += int64(m.N)
	e.Fingerprint = hashFloats(m.A...)
	if err != nil {
		e.Err = err.Error()
		return
	}
	for i, res := range results {
		if d := m.FactorError(res.L, r.ref); !(d <= verifyTol) {
			e.Err = fmt.Sprintf("proc %d: factor differs from sequential Cholesky by %g", i, d)
		}
	}
}

// ---- visibility probe: the paced phase ----

// probe measures write visibility — the time from a write to the moment
// another process has seen it — on a fleet with the workload's own
// configuration, paced by its own acknowledgements: process 0 publishes a
// wall-clock stamp and then a flag; every other process awaits the flag,
// reads the stamp, charges now-minus-stamp, and acknowledges; process 0
// publishes the next round when every acknowledgement is in. Nothing ever
// queues and the CPU never idles, which is the point: an open loop leaves
// the CPU idle most of the time, and its latencies then follow the
// hypervisor's wake-up cost (±30 % with the state of the VM, for minutes at
// a time). One op is one round.
type probe struct {
	// rounds are measured; a tenth as many again warm up first.
	rounds int
	seed   int64
	fleet  func() fleetConfig
}

// The probe's locations. Rounds reuse them: a value is overwritten only
// after every reader has acknowledged it, so the equality awaits cannot be
// skipped past. The flag's name satisfies apps.IsVisFlagLoc, which is how
// the traced pass picks the probes out of the event trace; "probe" keeps all
// of them clear of the session front-end's own vis/<proc>/... locations.
const (
	probeStampLoc = apps.VisLocPrefix + "probe/t"
	probeFlagLoc  = apps.VisLocPrefix + "probe/f"
)

func probeAckLoc(proc int) string { return apps.VisLocPrefix + "probe/a" + strconv.Itoa(proc) }

// place registers the probe's locations with a placement, as causal scopes:
// stamp and flag are read by every process but the publisher, each
// acknowledgement by the publisher alone.
func (r *probe) place(scope *dsm.ScopeMap) {
	if scope == nil {
		return
	}
	var chasers []int
	for proc := 1; proc < fleetProcs; proc++ {
		chasers = append(chasers, proc)
		ack := probeAckLoc(proc)
		scope.Readers[ack], scope.CausalReaders[ack] = []int{0}, []int{0}
	}
	for _, loc := range []string{probeStampLoc, probeFlagLoc} {
		scope.Readers[loc], scope.CausalReaders[loc] = chasers, chasers
	}
}

func (r *probe) epoch(tr *tracing) epoch {
	warmup := r.rounds / 10
	n := r.rounds + warmup
	// The values the rounds publish start at a seeded base.
	base := scramble(r.seed) >> 16
	e := epoch{Phase: phasePaced, Traced: tr != nil, Ops: int64(n), Fingerprint: uint64(base)}

	t0 := time.Now()
	cfg := r.fleet()
	r.place(cfg.scope)
	fl, err := newFleet(cfg, tr)
	e.SetupS = time.Since(t0).Seconds()
	if err != nil {
		e.Err = err.Error()
		return e
	}
	defer fl.close()

	lat := make([][]float64, fleetProcs)
	var publish []float64 // µs the publisher spent in its two writes
	c := timed(func() {
		err = fl.run(tr, func(p core.Process) error {
			defer p.Barrier()
			for k := 0; k < n; k++ {
				round := base + int64(k)
				if p.ID() == 0 {
					start := time.Now()
					p.Write(probeStampLoc, start.UnixNano())
					p.Write(probeFlagLoc, round)
					if k >= warmup {
						publish = append(publish, float64(time.Since(start))/1e3)
					}
					for peer := 1; peer < p.N(); peer++ {
						p.Await(probeAckLoc(peer), round)
					}
					continue
				}
				p.Await(probeFlagLoc, round)
				d := time.Now().UnixNano() - p.ReadCausal(probeStampLoc)
				if d < 0 || d > int64(time.Minute) {
					return fmt.Errorf("proc %d round %d: flag visible without its stamp (stamp is %d ns old)", p.ID(), k, d)
				}
				if k >= warmup {
					lat[p.ID()] = append(lat[p.ID()], float64(d)/1e3)
				}
				p.Write(probeAckLoc(p.ID()), round)
			}
			return nil
		})
	})
	e.charge(c, fl, tr)
	if err != nil {
		e.Err = err.Error()
		return e
	}
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	e.VisP50US = median(all)
	e.layers.visP99US = quantile(all, 0.99)
	e.layers.opP50US, e.layers.opP99US = median(publish), quantile(publish, 0.99)
	return e
}

// scramble spreads neighbouring seeds over the whole seed space. loadgen
// starts its splitmix64 state at seed times the generator's own increment,
// so seeds n and n+1 give one stream shifted by a single draw; scrambled
// seeds give unrelated streams.
func scramble(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// hashFloats fingerprints a generated numeric input.
func hashFloats(rows ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range rows {
		for _, x := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
