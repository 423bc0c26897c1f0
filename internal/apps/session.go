package apps

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/hist"
	"mixedmem/internal/loadgen"
)

// The session/KV front-end is the serving-shaped workload of the S1
// experiment: each process owns a shard of user sessions, worker strands
// drive seeded request streams against their own sessions, and a small set
// of global aggregates (hit counters per key group, an active-strand gauge)
// is maintained by every strand.
//
// The label assignment mirrors the paper's prescription. Session state is
// read-your-session data: a session's locations form a causal scope — its
// owner and one follower process read them causally, so a follower that
// observes a session write also observes everything that write depended on.
// Followers are assigned per session (session s of process p is followed by
// a peer picked round-robin from the other processes), so under scoped
// placement each session update travels to exactly one peer, while the
// broadcast baseline ships every update to everyone. The aggregates are
// pure commutative counters: order among increments is immaterial, so PRAM
// guarantees (plus a barrier before the final read) are enough, and under
// scoped placement their updates can skip causal metadata entirely.
//
// Three placement configurations bracket the design space:
//
//   - SessionBroadcast: no placement; every update is broadcast with full
//     vector-clock dependencies and all reads are causal. The baseline.
//   - SessionCausalScoped: sessions and visibility probes are registered
//     causal scopes (owner + follower), so their updates travel point to
//     point with dependency matrices; aggregates stay unregistered and
//     fall back to causal broadcast.
//   - SessionHybrid: as scoped, plus the aggregates are registered with
//     PRAM-elided placement (readers everywhere, causal readers nowhere),
//     so counter traffic drops dependency metadata and aggregate reads use
//     the PRAM fast path.
//
// Write visibility is measured end to end through the memory itself: every
// VisEvery-th measured write on a worker strand publishes a wall-clock
// timestamp and then a one-shot flag at a fresh location; a prober strand
// on the flagged session's follower awaits the flag causally, causally
// reads the timestamp, and charges now-minus-timestamp to the visibility
// histogram. Every process can replay every strand's trace, so a prober
// knows exactly which flags are addressed to it without any coordination.
// Awaiting a fresh location per flag (rather than a counter) matters:
// Await blocks on equality, so a monotone flag could skip past a lagging
// prober, while a one-shot flag is matched exactly once.

// SessionMode selects the label/placement configuration.
type SessionMode int

// Session placement configurations.
const (
	// SessionBroadcast runs with no placement: all updates broadcast with
	// full causal metadata, all reads causal.
	SessionBroadcast SessionMode = iota
	// SessionCausalScoped registers sessions and visibility probes as
	// causal scopes; aggregates stay unregistered (causal broadcast).
	SessionCausalScoped
	// SessionHybrid additionally registers the aggregates as PRAM-elided
	// counters read with PRAM labels.
	SessionHybrid
)

// String names the mode the way the S1 rows do.
func (m SessionMode) String() string {
	switch m {
	case SessionBroadcast:
		return "broadcast"
	case SessionCausalScoped:
		return "causal-scoped"
	case SessionHybrid:
		return "hybrid"
	}
	return "mode" + strconv.Itoa(int(m))
}

// ParseSessionMode maps a mode name (as printed by String) back to the
// mode.
func ParseSessionMode(s string) (SessionMode, error) {
	switch s {
	case "broadcast":
		return SessionBroadcast, nil
	case "causal-scoped", "scoped":
		return SessionCausalScoped, nil
	case "hybrid":
		return SessionHybrid, nil
	}
	return 0, fmt.Errorf("unknown session mode %q (want broadcast, causal-scoped, or hybrid)", s)
}

// SessionConfig parameterizes the session front-end. The workload — every
// strand's full request trace — is a pure function of the config, so any
// process can replay any strand (the probers and the counter verification
// both do).
type SessionConfig struct {
	// Procs is the number of processes. Required.
	Procs int
	// Workers is the number of worker strands per process.
	Workers int
	// Sessions is the number of sessions owned by each process.
	Sessions int
	// SessionKeys is the number of locations per session.
	SessionKeys int
	// Ops is the number of measured requests per worker strand.
	Ops int
	// Warmup is the number of unmeasured leading requests per strand.
	Warmup int
	// ReadFraction is the probability a request is a read.
	ReadFraction float64
	// ZipfS is the key-popularity skew within a process's shard.
	ZipfS float64
	// Rate, when positive, paces each strand open-loop at this many
	// requests per second; zero runs closed-loop.
	Rate float64
	// AggGroups is the number of global hit-counter groups.
	AggGroups int
	// AggEvery bumps a hit counter on every AggEvery-th request. Zero
	// takes the default; negative disables.
	AggEvery int
	// AggReadEvery reads an aggregate on every AggReadEvery-th request.
	// Zero takes the default; negative disables.
	AggReadEvery int
	// VisEvery flags every VisEvery-th measured write for a visibility
	// probe. Zero takes the default; negative disables (probes also need
	// Procs >= 2).
	VisEvery int
	// Seed is the workload seed.
	Seed int64
	// Mode is the placement configuration.
	Mode SessionMode
}

// WithDefaults fills zero fields with the standard small configuration.
func (c SessionConfig) WithDefaults() SessionConfig {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Sessions == 0 {
		c.Sessions = 4
	}
	if c.SessionKeys == 0 {
		c.SessionKeys = 8
	}
	if c.Ops == 0 {
		c.Ops = 200
	}
	if c.Warmup == 0 {
		c.Warmup = 40
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.ZipfS == 0 {
		c.ZipfS = 0.9
	}
	if c.AggGroups == 0 {
		c.AggGroups = 8
	}
	if c.AggEvery == 0 {
		c.AggEvery = 4
	}
	if c.AggReadEvery == 0 {
		c.AggReadEvery = 8
	}
	if c.VisEvery == 0 {
		c.VisEvery = 4
	}
	return c
}

// Location layout. Session keys are owned by one process; vis locations are
// one-shot (written once); aggregates are counter objects. sessionLoc and
// aggHitsLoc define the names; the request path indexes sessionNames, which is
// built from them.
func sessionLoc(sid, key int) string {
	return "sess/" + strconv.Itoa(sid) + "/k" + strconv.Itoa(key)
}

// sessionNames is the table of a configuration's reusable location names,
// built once per run so that a request formats none: shard[p][k] is the
// session location request key k denotes on process p's shard (Sessions *
// SessionKeys entries each) and hits[g] hit counter g's (AggGroups entries).
// The one-shot vis locations are formatted as they are raised.
type sessionNames struct {
	shard [][]string
	hits  []string
}

// names builds the configuration's name table. c has its defaults filled in.
func (c SessionConfig) names() *sessionNames {
	nm := &sessionNames{shard: make([][]string, c.Procs), hits: c.hitNames()}
	for p := range nm.shard {
		shard := make([]string, c.Sessions*c.SessionKeys)
		for k := range shard {
			shard[k] = sessionLoc(p*c.Sessions+k/c.SessionKeys, k%c.SessionKeys)
		}
		nm.shard[p] = shard
	}
	return nm
}

// hitNames builds the hit counters' half of the table.
func (c SessionConfig) hitNames() []string {
	hits := make([]string, c.AggGroups)
	for g := range hits {
		hits[g] = aggHitsLoc(g)
	}
	return hits
}

// VisLocPrefix is the namespace of the write-visibility probe locations:
// "vis/<proc>/<worker>/t<k>" carries the publish timestamp and
// "vis/<proc>/<worker>/f<k>" the awaited one-shot flag.
const VisLocPrefix = "vis/"

// IsVisFlagLoc reports whether loc is a visibility-probe flag location —
// the locations probers Await. The causal-path explainer (internal/obs)
// uses this predicate to select exactly the write-visibility probes out of
// a trace, so latency attribution skips session and aggregate awaits.
func IsVisFlagLoc(loc string) bool {
	if !strings.HasPrefix(loc, VisLocPrefix) {
		return false
	}
	i := strings.LastIndexByte(loc, '/')
	return i >= 0 && i+1 < len(loc) && loc[i+1] == 'f'
}

// visLocs names flag k of strand (proc, worker)'s timestamp and flag
// locations, formatting the shared digits once: both names are the two halves
// of one string, one allocation.
func visLocs(proc, worker, k int) (tloc, floc string) {
	var buf [160]byte
	b := append(buf[:0], VisLocPrefix...)
	b = strconv.AppendInt(b, int64(proc), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(worker), 10)
	b = append(b, '/')
	kind := len(b)
	b = append(b, 't')
	b = strconv.AppendInt(b, int64(k), 10)
	half := len(b)
	b = append(b, b...)
	b[half+kind] = 'f'
	both := string(b)
	return both[:half], both[half:]
}

func aggHitsLoc(group int) string { return "agg/hits/" + strconv.Itoa(group) }

const aggActiveLoc = "agg/active"

// genConfig is the single point deciding strand (proc, worker)'s request
// stream; everyone who replays a trace goes through it.
func (c SessionConfig) genConfig(proc, worker int) loadgen.Config {
	return loadgen.Config{
		Keys:         c.Sessions * c.SessionKeys,
		ZipfS:        c.ZipfS,
		ReadFraction: c.ReadFraction,
		Seed:         c.Seed,
		Worker:       proc*c.Workers + worker,
		Rate:         c.Rate,
	}
}

// visEnabled reports whether visibility probing is on: it needs a probe
// period and a distinct follower process to probe from.
func (c SessionConfig) visEnabled() bool { return c.VisEvery > 0 && c.Procs > 1 }

// follower returns the process that causally reads session s of proc (s is
// the owner-local session index) and probes the visibility of its writes.
// Sessions rotate round-robin over the other processes, so each scoped
// session update travels to exactly one peer while the broadcast baseline
// ships it to all of them.
func (c SessionConfig) follower(proc, s int) int {
	return (proc + 1 + s%(c.Procs-1)) % c.Procs
}

// aggGroup maps a request on proc's shard to its global hit-counter group.
func (c SessionConfig) aggGroup(proc, key int) int {
	return (proc*c.Sessions*c.SessionKeys + key) % c.AggGroups
}

// visProbe describes one visibility flag a strand will raise: which
// session write it marks and which process is responsible for probing it.
type visProbe struct {
	// Session is the owner-local session index of the flagged write, and
	// Key the location index within it.
	Session, Key int
	// Follower is the process the flag is addressed to.
	Follower int
}

// walkFlagPlan replays strand (proc, worker)'s trace and hands visit, in flag
// order, each visibility flag the strand will raise: flag k marks a write to
// session probe.Session and is probed by probe.Follower. The replay skips the
// warmup without drawing it and samples a key only for a flagged write.
func (c SessionConfig) walkFlagPlan(proc, worker int, visit func(k int, probe visProbe)) {
	if !c.visEnabled() {
		return
	}
	g := loadgen.New(c.genConfig(proc, worker))
	g.Skip(c.Warmup)
	writes := 0
	for i := max(c.Warmup, 0); i < c.Warmup+c.Ops; i++ {
		req, u := g.NextDeferred()
		if req.Op != loadgen.OpWrite {
			continue
		}
		if writes%c.VisEvery == 0 {
			key := g.Key(u)
			s := key / c.SessionKeys
			visit(writes/c.VisEvery, visProbe{
				Session:  s,
				Key:      key % c.SessionKeys,
				Follower: c.follower(proc, s),
			})
		}
		writes++
	}
}

// FlagPlan returns, in flag order, the visibility flags strand (proc,
// worker) will raise — the probers' worklist and the scope builder's
// registration bound, as a slice.
func (c SessionConfig) FlagPlan(proc, worker int) []visProbe {
	var plan []visProbe
	c.walkFlagPlan(proc, worker, func(_ int, probe visProbe) { plan = append(plan, probe) })
	return plan
}

// ExpectedHits replays every strand's trace and returns the final value
// each global hit counter must converge to — computable on any process,
// which is how a distributed run verifies its counters without a central
// referee. Only every AggEvery-th request bumps a counter, so the replay
// draws only those and skips the rest.
func (c SessionConfig) ExpectedHits() []int64 {
	c = c.WithDefaults()
	hits := make([]int64, c.AggGroups)
	if c.AggEvery <= 0 {
		return hits
	}
	n := c.Warmup + c.Ops
	for p := 0; p < c.Procs; p++ {
		for w := 0; w < c.Workers; w++ {
			g := loadgen.New(c.genConfig(p, w))
			for i := 0; i < n; i += c.AggEvery {
				_, u := g.NextDeferred()
				hits[c.aggGroup(p, g.Key(u))]++
				g.Skip(min(c.AggEvery, n-i) - 1)
			}
		}
	}
	return hits
}

// WorkloadFingerprint hashes every strand's trace into one value — a pure
// function of the config, so two runs (or two substrates) asserting equal
// fingerprints have provably generated the identical workload.
func (c SessionConfig) WorkloadFingerprint() uint64 {
	c = c.WithDefaults()
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for p := 0; p < c.Procs; p++ {
		for w := 0; w < c.Workers; w++ {
			h = (h ^ loadgen.Fingerprint(c.genConfig(p, w), c.Warmup+c.Ops)) * prime
		}
	}
	return h
}

// SessionScope builds the placement for the configuration, or nil for the
// broadcast baseline. Registration is the soundness contract: every read
// below appears here with at least the label it uses.
func SessionScope(c SessionConfig) *dsm.ScopeMap {
	c = c.WithDefaults()
	if c.Mode == SessionBroadcast {
		return nil
	}
	// Size the maps for the sessions plus the flags a strand raises on
	// average (two locations each); the aggregates fit in the slack.
	size := c.Procs * c.Sessions * c.SessionKeys
	if c.visEnabled() {
		size += 2 * c.Procs * c.Workers * int(float64(c.Ops)*(1-c.ReadFraction)/float64(c.VisEvery)+1)
	}
	scope := &dsm.ScopeMap{
		Readers:       make(map[string][]int, size),
		CausalReaders: make(map[string][]int, size),
	}
	// probers[f] is the reader list of every vis location follower f probes;
	// the lists are read-only, so one serves them all.
	probers := make([][]int, c.Procs)
	for f := range probers {
		probers[f] = []int{f}
	}
	nm := c.names()
	for p := 0; p < c.Procs; p++ {
		for s := 0; s < c.Sessions; s++ {
			readers := []int{p}
			if c.Procs > 1 {
				readers = append(readers, c.follower(p, s))
			}
			for _, loc := range nm.shard[p][s*c.SessionKeys : (s+1)*c.SessionKeys] {
				scope.Readers[loc] = readers
				scope.CausalReaders[loc] = readers
			}
		}
		for w := 0; w < c.Workers; w++ {
			c.walkFlagPlan(p, w, func(f int, probe visProbe) {
				prober := probers[probe.Follower]
				tloc, floc := visLocs(p, w, f)
				scope.Readers[tloc] = prober
				scope.CausalReaders[tloc] = prober
				scope.Readers[floc] = prober
				scope.CausalReaders[floc] = prober
			})
		}
	}
	if c.Mode == SessionHybrid {
		all := make([]int, c.Procs)
		for i := range all {
			all[i] = i
		}
		for _, loc := range nm.hits {
			scope.Readers[loc] = all
		}
		scope.Readers[aggActiveLoc] = all
	}
	return scope
}

// SessionProcResult reports one process's share of a session run.
type SessionProcResult struct {
	// Read, Write, and Vis are the measured-phase latency histograms:
	// read latency, write-issue latency, and cross-process write-visibility
	// latency (probed on this process, for the watched process's writes).
	Read, Write, Vis *hist.Histogram
	// Reads, Writes, and Adds count the process's memory operations issued
	// by the workload (warmup included) — deterministic per config.
	Reads, Writes, Adds int64
	// Flags is the number of visibility flags this process's workers
	// raised.
	Flags int
}

// strandRec is one strand's private measurement state; strands never share
// histograms, so the hot path takes no locks.
type strandRec struct {
	read, write, vis    *hist.Histogram
	reads, writes, adds int64
	flags               int
}

// ServeSessions runs the session front-end on process p: Workers request
// strands over the process's own session shard plus, when visibility
// probing is enabled, one prober strand per other process's worker strand,
// each replaying that strand's trace and chasing the flags addressed here.
// Every process of the run must call it with the same config. It ends with
// a barrier, so when it returns, every process's updates are applied
// everywhere and the counters may be verified.
func ServeSessions(p core.Process, cfg SessionConfig) *SessionProcResult {
	c := cfg.WithDefaults()
	c.Procs = p.N()
	me := p.ID()

	nWorkers := c.Workers
	nProbers := 0
	if c.visEnabled() {
		nProbers = (c.Procs - 1) * c.Workers
	}
	recs := make([]strandRec, nWorkers+nProbers)
	for i := range recs {
		recs[i] = strandRec{read: hist.New(), write: hist.New(), vis: hist.New()}
	}
	nm := c.names()

	p.Forall(nWorkers+nProbers, func(i int, t core.ThreadOps) {
		if i < nWorkers {
			runSessionWorker(t, c, nm, me, i, &recs[i])
		} else {
			// Prober j chases worker j%Workers of the (j/Workers+1)-th
			// process after this one.
			j := i - nWorkers
			watched := (me + 1 + j/c.Workers) % c.Procs
			runVisProber(t, c, nm, me, watched, j%c.Workers, &recs[i])
		}
	})

	res := &SessionProcResult{Read: hist.New(), Write: hist.New(), Vis: hist.New()}
	for i := range recs {
		res.Read.Merge(recs[i].read)
		res.Write.Merge(recs[i].write)
		res.Vis.Merge(recs[i].vis)
		res.Reads += recs[i].reads
		res.Writes += recs[i].writes
		res.Adds += recs[i].adds
		res.Flags += recs[i].flags
	}

	// All processes arrive and all pre-arrival updates are applied: the
	// aggregates are final and safe to verify with PRAM reads.
	p.Barrier()
	return res
}

// runSessionWorker drives strand (me, w)'s request trace against the
// process's session shard.
func runSessionWorker(t core.ThreadOps, c SessionConfig, nm *sessionNames, me, w int, rec *strandRec) {
	g := loadgen.New(c.genConfig(me, w))
	strand := int64(me*c.Workers + w)

	t.Add(aggActiveLoc, 1)
	rec.adds++

	// Operations are timed as differences of offsets from base: time.Since
	// reads only the monotonic clock, time.Now the wall clock as well. The
	// visibility stamp below is the exception, since another process reads
	// it.
	base := time.Now()
	writes := 0
	for i := 0; i < c.Warmup+c.Ops; i++ {
		req := g.Next()
		if c.Rate > 0 {
			if d := req.Arrival - time.Since(base); d > 0 {
				time.Sleep(d)
			}
		}
		measured := i >= c.Warmup
		loc := nm.shard[me][req.Key]

		switch req.Op {
		case loadgen.OpRead:
			start := time.Since(base)
			t.ReadCausal(loc)
			if measured {
				rec.read.RecordDuration(time.Since(base) - start)
			}
			rec.reads++
		case loadgen.OpWrite:
			// Distinct per location across the owner's strands: the strand
			// id in the high bits, the request index in the low.
			v := (strand+1)<<32 | int64(i+1)
			start := time.Since(base)
			t.Write(loc, v)
			if measured {
				rec.write.RecordDuration(time.Since(base) - start)
			}
			rec.writes++
			if measured && c.visEnabled() {
				if writes%c.VisEvery == 0 {
					tloc, floc := visLocs(me, w, rec.flags)
					t.Write(tloc, time.Now().UnixNano())
					t.Write(floc, int64(rec.flags+1))
					rec.flags++
					rec.writes += 2
				}
				writes++
			}
		}

		if c.AggEvery > 0 && i%c.AggEvery == 0 {
			t.Add(nm.hits[c.aggGroup(me, req.Key)], 1)
			rec.adds++
		}
		if c.AggReadEvery > 0 && i%c.AggReadEvery == 0 {
			group := nm.hits[i/c.AggReadEvery%c.AggGroups]
			start := time.Since(base)
			if c.Mode == SessionHybrid {
				t.ReadPRAM(group)
			} else {
				t.ReadCausal(group)
			}
			if measured {
				rec.read.RecordDuration(time.Since(base) - start)
			}
			rec.reads++
		}
	}

	t.Add(aggActiveLoc, -1)
	rec.adds++
}

// runVisProber chases the flagged writes of the watched process's worker w
// that are addressed to this process: await the one-shot flag causally,
// causally read the published timestamp, and charge the difference to the
// visibility histogram. It then causally reads the flagged session key —
// the causal-scope payoff the session design exists for: the flag's causal
// dependencies guarantee the session state the flagged write was built on
// is visible here.
func runVisProber(t core.ThreadOps, c SessionConfig, nm *sessionNames, me, watched, w int, rec *strandRec) {
	base := time.Now()
	c.walkFlagPlan(watched, w, func(k int, probe visProbe) {
		if probe.Follower != me {
			return
		}
		tloc, floc := visLocs(watched, w, k)
		t.Await(floc, int64(k+1))
		sent := t.ReadCausal(tloc)
		rec.vis.Record(time.Now().UnixNano() - sent)
		rec.reads++

		start := time.Since(base)
		t.ReadCausal(nm.shard[watched][probe.Session*c.SessionKeys+probe.Key])
		rec.read.RecordDuration(time.Since(base) - start)
		rec.reads++
	})
}

// VerifySessionCounters checks, after ServeSessions has returned on every
// process, that the global aggregates converged to the replay-predicted
// values: each hit counter equals its ExpectedHits entry and the active
// gauge drained to zero. PRAM reads suffice on every mode — the barrier
// closing ServeSessions guarantees all increments are applied.
func VerifySessionCounters(p core.Process, cfg SessionConfig) error {
	c := cfg.WithDefaults()
	c.Procs = p.N()
	want := c.ExpectedHits()
	for g, loc := range c.hitNames() {
		if got := p.ReadPRAM(loc); got != want[g] {
			return fmt.Errorf("proc %d: hit counter %d = %d, want %d", p.ID(), g, got, want[g])
		}
	}
	if got := p.ReadPRAM(aggActiveLoc); got != 0 {
		return fmt.Errorf("proc %d: active gauge = %d after all strands exited, want 0", p.ID(), got)
	}
	return nil
}
