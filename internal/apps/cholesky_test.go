package apps

import (
	"math"
	"runtime"
	"testing"

	"mixedmem/internal/core"
)

func TestGenSparseSPDStructure(t *testing.T) {
	m := GenSparseSPD(16, 0.2, 1)
	if m.N != 16 || len(m.A) != 16 || len(m.Fill) != 16 || len(m.Count) != 16 {
		t.Fatal("malformed matrix")
	}
	for i := 0; i < m.N; i++ {
		if m.A[i][i] <= 0 {
			t.Fatalf("diagonal %d not positive: %v", i, m.A[i][i])
		}
		if !m.Fill[i][i] {
			t.Fatalf("diagonal %d not in fill pattern", i)
		}
	}
	if m.Count[0] != 0 {
		t.Fatalf("column 0 has count %d, want 0", m.Count[0])
	}
}

func TestGenSparseSPDDeterministic(t *testing.T) {
	a := GenSparseSPD(10, 0.3, 5)
	b := GenSparseSPD(10, 0.3, 5)
	for i := range a.A {
		for j := range a.A[i] {
			if a.A[i][j] != b.A[i][j] {
				t.Fatal("generator not deterministic")
			}
		}
	}
}

func TestSymbolicFillCoversNumericFill(t *testing.T) {
	// Every numerically nonzero entry of the sequential factor must be a
	// structural nonzero of the symbolic pattern.
	m := GenSparseSPD(20, 0.15, 3)
	l, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j <= i; j++ {
			if l[i][j] != 0 && !m.Fill[i][j] {
				t.Fatalf("numeric nonzero (%d,%d) missing from symbolic fill", i, j)
			}
		}
	}
}

func TestCholeskySequentialFactorizes(t *testing.T) {
	m := GenSparseSPD(15, 0.25, 7)
	l, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	// Verify L Lᵀ = A on the lower triangle.
	for i := 0; i < m.N; i++ {
		for j := 0; j <= i; j++ {
			var sum float64
			for k := 0; k <= j; k++ {
				sum += l[i][k] * l[j][k]
			}
			if d := math.Abs(sum - m.A[i][j]); d > 1e-9 {
				t.Fatalf("LLᵀ differs from A at (%d,%d) by %v", i, j, d)
			}
		}
	}
}

func TestCholeskyCountMatchesDependencies(t *testing.T) {
	m := GenSparseSPD(12, 0.3, 9)
	for k := 0; k < m.N; k++ {
		want := 0
		for j := 0; j < k; j++ {
			if m.Fill[k][j] {
				want++
			}
		}
		if m.Count[k] != want {
			t.Fatalf("count[%d] = %d, want %d", k, m.Count[k], want)
		}
	}
}

func TestCholeskyLocksMatchesSequential(t *testing.T) {
	m := GenSparseSPD(14, 0.25, 21)
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	results := make([]CholeskyResult, 3)
	runMixed(t, 3, func(p *core.Proc) {
		results[p.ID()] = CholeskyLocks(p, m, SolveOptions{})
	})
	for id, res := range results {
		if d := m.FactorError(res.L, ref); d > 1e-9 {
			t.Fatalf("proc %d factor differs from sequential by %v", id, d)
		}
	}
}

func TestCholeskyCountersMatchesSequential(t *testing.T) {
	m := GenSparseSPD(14, 0.25, 22)
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	results := make([]CholeskyResult, 3)
	runMixed(t, 3, func(p *core.Proc) {
		results[p.ID()] = CholeskyCounters(p, m, SolveOptions{})
	})
	// Floating-point adds commute only up to rounding, so allow a small
	// tolerance rather than exact equality.
	for id, res := range results {
		if d := m.FactorError(res.L, ref); d > 1e-6 {
			t.Fatalf("proc %d factor differs from sequential by %v", id, d)
		}
	}
}

func TestCholeskyVariantsAgree(t *testing.T) {
	m := GenSparseSPD(12, 0.3, 23)
	var lockL, cntL [][]float64
	runMixed(t, 4, func(p *core.Proc) {
		r := CholeskyLocks(p, m, SolveOptions{})
		if p.ID() == 0 {
			lockL = r.L
		}
	})
	runMixed(t, 4, func(p *core.Proc) {
		r := CholeskyCounters(p, m, SolveOptions{})
		if p.ID() == 0 {
			cntL = r.L
		}
	})
	if d := m.FactorError(lockL, cntL); d > 1e-6 {
		t.Fatalf("variants differ by %v", d)
	}
}

func TestCholeskySingleProc(t *testing.T) {
	m := GenSparseSPD(10, 0.3, 31)
	ref, _ := m.CholeskySequential()
	var res CholeskyResult
	runMixed(t, 1, func(p *core.Proc) {
		res = CholeskyLocks(p, m, SolveOptions{})
	})
	if d := m.FactorError(res.L, ref); d > 1e-9 {
		t.Fatalf("single-proc factor off by %v", d)
	}
}

func TestCholeskyDenseMatrix(t *testing.T) {
	// density 1.0 produces a fully dense SPD matrix: the worst case for
	// lock contention, still correct.
	m := GenSparseSPD(10, 1.0, 13)
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	var res CholeskyResult
	runMixed(t, 3, func(p *core.Proc) {
		r := CholeskyLocks(p, m, SolveOptions{})
		if p.ID() == 1 {
			res = r
		}
	})
	if d := m.FactorError(res.L, ref); d > 1e-8 {
		t.Fatalf("dense factor off by %v", d)
	}
}

func TestCholeskyCountersUseNoLocks(t *testing.T) {
	m := GenSparseSPD(10, 0.3, 17)
	sys := runMixed(t, 3, func(p *core.Proc) {
		CholeskyCounters(p, m, SolveOptions{})
	})
	for i := 0; i < 3; i++ {
		if s := sys.Proc(i).LockStats(); s.Acquires != 0 {
			t.Fatalf("counter variant acquired %d locks", s.Acquires)
		}
	}
	stats := sys.NetStats()
	if stats.PerKind["lock-req"] != 0 {
		t.Fatalf("counter variant sent %d lock requests", stats.PerKind["lock-req"])
	}
}

func TestGenGridSPDStructure(t *testing.T) {
	m := GenGridSPD(4)
	if m.N != 16 {
		t.Fatalf("N = %d, want 16", m.N)
	}
	// Diagonal 4, neighbor couplings -1.
	for i := 0; i < m.N; i++ {
		if m.A[i][i] != 4 {
			t.Fatalf("diag %d = %v", i, m.A[i][i])
		}
	}
	if m.A[1][0] != -1 || m.A[4][0] != -1 {
		t.Fatalf("neighbor couplings wrong: %v %v", m.A[1][0], m.A[4][0])
	}
	// Non-neighbors are zero in A.
	if m.A[5][0] != 0 {
		t.Fatalf("diagonal-adjacent cells must not couple: %v", m.A[5][0])
	}
}

func TestGridSPDCholeskyFactorizes(t *testing.T) {
	m := GenGridSPD(5)
	l, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	// L Lᵀ must reconstruct A on the lower triangle.
	for i := 0; i < m.N; i++ {
		for j := 0; j <= i; j++ {
			var sum float64
			for k := 0; k <= j; k++ {
				sum += l[i][k] * l[j][k]
			}
			if d := math.Abs(sum - m.A[i][j]); d > 1e-9 {
				t.Fatalf("LLᵀ != A at (%d,%d): %v", i, j, d)
			}
		}
	}
}

func TestGridSPDParallelVariantsMatch(t *testing.T) {
	m := GenGridSPD(4)
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	for _, counters := range []bool{false, true} {
		var res CholeskyResult
		runMixed(t, 4, func(p *core.Proc) {
			var r CholeskyResult
			if counters {
				r = CholeskyCounters(p, m, SolveOptions{})
			} else {
				r = CholeskyLocks(p, m, SolveOptions{})
			}
			if p.ID() == 0 {
				res = r
			}
		})
		if d := m.FactorError(res.L, ref); d > 1e-6 {
			t.Fatalf("counters=%v: grid factor off by %v", counters, d)
		}
	}
}

func TestGridSPDFillIn(t *testing.T) {
	// The Laplacian's factor fills in: symbolic nonzeros strictly exceed
	// the original nonzeros for k >= 3.
	m := GenGridSPD(4)
	orig, fill := 0, 0
	for i := 0; i < m.N; i++ {
		for j := 0; j <= i; j++ {
			if m.A[i][j] != 0 {
				orig++
			}
			if m.Fill[i][j] {
				fill++
			}
		}
	}
	if fill <= orig {
		t.Fatalf("no fill-in: orig=%d fill=%d", orig, fill)
	}
}

// TestCholeskyLocksAllocsPerColumn counts the allocations of one Figure 5
// factorization — CholeskyLocks on the 8×8 grid Laplacian, 64 columns, on a
// fresh 3-process sim system — around the run alone, not the system's
// construction or Close. Every location the factorization writes is new to
// every replica, so the count is dominated by what a location, a sent update
// and a lock round cost the runtime.
//
// Twenty runs read 5.50–5.95 allocations per column (5.61–5.91 under -race);
// the bound leaves about a fifth over the highest. A location table per
// shard instead of per node reads about 21; a sent update whose timestamp is
// carved from a slab of its own reads 6.4–6.9, inside the bound, and is
// TestWriteCausalUnbatchedAllocFloor's to catch (internal/dsm).
func TestCholeskyLocksAllocsPerColumn(t *testing.T) {
	const maxPerColumn = 7.0
	m := GenGridSPD(8)
	ref, err := m.CholeskySequential()
	if err != nil {
		t.Fatalf("CholeskySequential: %v", err)
	}
	sys, err := core.NewSystem(core.Config{Procs: 3})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	results := make([]CholeskyResult, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.Run(func(p *core.Proc) {
		results[p.ID()] = CholeskyLocks(p, m, SolveOptions{})
	})
	runtime.ReadMemStats(&after)
	for id, res := range results {
		if d := m.FactorError(res.L, ref); d > 1e-9 {
			t.Fatalf("proc %d factor differs from sequential by %v", id, d)
		}
	}
	if perColumn := float64(after.Mallocs-before.Mallocs) / float64(m.N); perColumn > maxPerColumn {
		t.Errorf("CholeskyLocks on a %d-column grid: %.2f allocs per column, want <= %.1f", m.N, perColumn, maxPerColumn)
	}
}
