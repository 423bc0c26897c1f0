package apps

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"mixedmem/internal/core"
	"mixedmem/internal/loctab"
)

// The Cholesky programs' naming scheme, spelled out name by name: the
// factor's entries, the column counters and the column locks.
func lVar(i, j int) string  { return "L" + strconv.Itoa(i) + "_" + strconv.Itoa(j) }
func countVar(k int) string { return "count" + strconv.Itoa(k) }
func colLock(k int) string  { return "l" + strconv.Itoa(k) }

// The session front-end's: key k of session sid, and hit counter group.
func sessionLoc(sid, key int) string { return "sess/" + strconv.Itoa(sid) + "/k" + strconv.Itoa(key) }
func aggHitsLoc(group int) string    { return "agg/hits/" + strconv.Itoa(group) }

// TestNameTablesMatchNamingScheme: xVar, lVar, countVar and colLock define
// the shared-variable names; the tables the programs index must agree with
// them entry for entry — names off the structural nonzeros
// stay empty, so a program that strays from the fill pattern cannot hit a
// real variable by accident.
func TestNameTablesMatchNamingScheme(t *testing.T) {
	ls := GenDiagDominant(37, 1)
	xs := ls.xNames()
	if len(xs) != ls.N {
		t.Fatalf("%d estimate names for %d unknowns", len(xs), ls.N)
	}
	for i, name := range xs {
		if name != xVar(i) {
			t.Fatalf("xNames[%d] = %q, want %q", i, name, xVar(i))
		}
	}
	if &ls.xNames()[0] != &xs[0] {
		t.Fatal("xNames rebuilt its table on the second call")
	}

	for name, m := range map[string]*SparseSPD{
		"random": GenSparseSPD(23, 0.2, 5),
		"grid":   GenGridSPD(4),
	} {
		nm := m.varNames()
		filled := 0
		for i := 0; i < m.N; i++ {
			for j := 0; j <= i; j++ {
				want := ""
				if m.Fill[i][j] {
					want = lVar(i, j)
					filled++
				}
				if got := nm.entry(i, j); got != want {
					t.Fatalf("%s: entry(%d, %d) = %q, want %q", name, i, j, got, want)
				}
			}
			if nm.count[i] != countVar(i) || nm.lock[i] != colLock(i) {
				t.Fatalf("%s: column %d named %q / %q, want %q / %q",
					name, i, nm.count[i], nm.lock[i], countVar(i), colLock(i))
			}
		}
		if filled == 0 || filled == m.N*(m.N+1)/2 {
			t.Fatalf("%s: %d structural nonzeros; the matrix does not exercise both cases", name, filled)
		}
		if m.varNames() != nm {
			t.Fatalf("%s: varNames rebuilt its table on the second call", name)
		}
		// The names are slices of one string, so a table of hundreds costs a
		// handful of allocations: the three slices, the string, and what the
		// builder's closure keeps on the heap.
		allocs := testing.AllocsPerRun(10, func() {
			fresh := SparseSPD{N: m.N, Fill: m.Fill}
			fresh.varNames()
		})
		if allocs > 8 {
			t.Errorf("%s: building the table of %d names made %.0f allocations, want <= 8", name, filled+2*m.N, allocs)
		}
	}
}

// mallocsDuring counts the process-wide heap allocations made while every
// process of a fresh system runs body.
func mallocsDuring(t *testing.T, cfg core.Config, body func(p *core.Proc)) uint64 {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys.Run(body)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSolversDoNotAllocatePerAccess bounds, by counting, what the two
// benchmark programs allocate per unit of work on the simulated fabric. An
// iteration of the barrier solver makes N reads per process and N writes, a
// Cholesky column dozens of reads and writes inside critical sections; with
// names taken from the tables and sent updates from the slabs none of those
// accesses allocates, and what is left is the synchronization traffic — a
// constant per barrier or lock round. A name formatted per access, or an
// update boxed per write, multiplies the count by the access count and lands
// far outside these bounds.
func TestSolversDoNotAllocatePerAccess(t *testing.T) {
	const procs = 3

	const unknowns, iters = 48, 200
	ls := GenDiagDominant(unknowns, 3)
	ls.xNames() // the one-time table is not an iteration's cost
	mallocs := mallocsDuring(t, core.Config{Procs: procs, PRAMOnly: true}, func(p *core.Proc) {
		// An unreachable tolerance keeps every run at exactly iters iterations.
		if res := SolveBarrier(p, ls, SolveOptions{Tol: 1e-300, MaxIters: iters}); res.Iters != iters {
			t.Errorf("proc %d ran %d iterations, want %d", p.ID(), res.Iters, iters)
		}
	})
	// An iteration makes procs*unknowns reads and unknowns writes: 192
	// accesses. Two barrier rounds cost about 40 allocations.
	perIter := float64(mallocs) / iters
	t.Logf("barrier Jacobi: %.1f allocs/iteration (%d accesses each)", perIter, (procs+1)*unknowns)
	if perIter > 80 {
		t.Errorf("barrier Jacobi allocates %.1f objects per iteration, want <= 80: something allocates per access", perIter)
	}

	m := GenGridSPD(6)
	m.varNames()
	writes := 0
	for j := 0; j < m.N; j++ {
		for k := j + 1; k < m.N; k++ {
			if !m.Fill[k][j] {
				continue
			}
			for i := k; i < m.N; i++ {
				if m.Fill[i][j] {
					writes++
				}
			}
		}
	}
	mallocs = mallocsDuring(t, core.Config{Procs: procs}, func(p *core.Proc) {
		CholeskyLocks(p, m, SolveOptions{})
	})
	perCol := float64(mallocs) / float64(m.N)
	t.Logf("Cholesky with locks: %.1f allocs/column (%.1f critical-section writes each)",
		perCol, float64(writes)/float64(m.N))
	if perCol > 150 {
		t.Errorf("Cholesky with locks allocates %.1f objects per column, want <= 150: something allocates per access", perCol)
	}
}

// TestSessionNameTablesMatchNamingScheme: sessionLoc and aggHitsLoc spell out
// the session front-end's location names; the table the strands index must
// agree with them over the whole index range, for every process's shard. The names
// are on the wire, so the pins that follow are the other half: the workload
// fingerprint and the simulated fabric's message and byte counts for the unit
// tests' configuration read exactly what they read when every request
// formatted its own names.
func TestSessionNameTablesMatchNamingScheme(t *testing.T) {
	c := sessionTestConfig(SessionBroadcast).WithDefaults()
	c.Procs, c.Sessions, c.SessionKeys, c.AggGroups = 5, 7, 13, 11
	nm := c.names()
	if len(nm.shard) != c.Procs || len(nm.hits) != c.AggGroups {
		t.Fatalf("table has %d shards and %d hit counters, want %d and %d", len(nm.shard), len(nm.hits), c.Procs, c.AggGroups)
	}
	for p, shard := range nm.shard {
		if len(shard) != c.Sessions*c.SessionKeys {
			t.Fatalf("shard %d has %d names, want %d", p, len(shard), c.Sessions*c.SessionKeys)
		}
		for key, name := range shard {
			// What the worker computed per request before the table.
			if want := sessionLoc(p*c.Sessions+key/c.SessionKeys, key%c.SessionKeys); name != want {
				t.Fatalf("shard[%d][%d] = %q, want %q", p, key, name, want)
			}
		}
	}
	for g, name := range nm.hits {
		if name != aggHitsLoc(g) {
			t.Fatalf("hits[%d] = %q, want %q", g, name, aggHitsLoc(g))
		}
	}
	// Every name is a slice of one string: the table, its slice of names, its
	// slice of shards and the string, however many names.
	if allocs := testing.AllocsPerRun(10, func() { c.names() }); allocs != 4 {
		t.Errorf("names: %.0f allocs for a %d-name table, want 4", allocs, c.Procs*c.Sessions*c.SessionKeys+c.AggGroups)
	}
	var names loctab.NameArena
	for _, k := range []int{0, 9, 123, 1 << 40} {
		tloc, floc := visLocs(&names, 4, 12, k)
		if want := fmt.Sprintf("vis/4/12/t%d", k); tloc != want || IsVisFlagLoc(tloc) {
			t.Fatalf("timestamp name of flag %d is %q, want %q", k, tloc, want)
		}
		if want := fmt.Sprintf("vis/4/12/f%d", k); floc != want || !IsVisFlagLoc(floc) {
			t.Fatalf("flag name of flag %d is %q, want %q", k, floc, want)
		}
	}
	// A probe's two names are the halves of one string carved from the
	// strand's arena: a chunk holds over 100 probes' names, so a probe
	// allocates nothing of its own.
	k := 0
	if allocs := testing.AllocsPerRun(1000, func() { k++; _, _ = visLocs(&names, 4, 12, k) }); allocs != 0 {
		t.Errorf("visLocs: %.3f allocs per probe, want 0", allocs)
	}

	const fingerprint = 13835541821224367435
	for _, tc := range []struct {
		mode        SessionMode
		msgs, bytes uint64 // bytes 0: dependency matrices make them schedule-dependent
	}{
		{SessionBroadcast, 884, 28714},
		{SessionCausalScoped, 564, 0},
		{SessionHybrid, 564, 0},
	} {
		cfg := sessionTestConfig(tc.mode)
		if got := cfg.WorkloadFingerprint(); got != fingerprint {
			t.Fatalf("%v: workload fingerprint %d, want %d", tc.mode, got, uint64(fingerprint))
		}
		sys, _ := runSessionSystem(t, cfg, false, true)
		st := sys.NetStats()
		sys.Close()
		if st.MessagesSent != tc.msgs || (tc.bytes != 0 && st.BytesSent != tc.bytes) {
			t.Errorf("%v: %d messages, %d bytes on the fabric; want %d and %d", tc.mode, st.MessagesSent, st.BytesSent, tc.msgs, tc.bytes)
		}
	}
}

// TestSessionRequestsFormatNoName bounds, by counting, what a steady-state
// request of the session front-end allocates on the simulated fabric: with
// the names taken from the table and sent updates from the slabs, a request —
// a read, or a write and its share of counter bumps — allocates nothing of its
// own, and what is left is per run (the table, the strands, the histograms).
// A name formatted per request costs at least one allocation each.
func TestSessionRequestsFormatNoName(t *testing.T) {
	cfg := sessionTestConfig(SessionBroadcast)
	cfg.Ops, cfg.Warmup, cfg.VisEvery = 4000, 0, -1 // vis names are one-shot by design
	requests := float64(cfg.Procs * cfg.Workers * cfg.Ops)
	mallocs := mallocsDuring(t, core.Config{Procs: cfg.Procs}, func(p *core.Proc) {
		ServeSessions(p, cfg)
	})
	perReq := float64(mallocs) / requests
	t.Logf("session front-end: %.3f allocs/request over %.0f requests", perReq, requests)
	if perReq > 0.25 {
		t.Errorf("session front-end allocates %.2f objects per request, want <= 0.25: something allocates per request", perReq)
	}
}
