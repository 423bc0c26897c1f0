package apps

import (
	"math"
	"strconv"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
)

// EMProblem is a one-dimensional staggered-grid electromagnetic-field
// computation in the spirit of Figure 4: E-field samples live between
// H-field samples, and the simulation alternates phases in which adjoining
// H values update E values and adjoining E values update H values.
type EMProblem struct {
	// Size is the number of grid cells.
	Size int
	// Steps is the number of full E+H update steps.
	Steps int
	// C is the update (Courant) coefficient.
	C float64
	// E0 and H0 are the initial fields, length Size.
	E0, H0 []float64
}

// GenEMProblem builds a grid of the given size with a smooth seeded initial
// excitation.
func GenEMProblem(size, steps int, seed int64) *EMProblem {
	p := &EMProblem{
		Size:  size,
		Steps: steps,
		C:     0.4,
		E0:    make([]float64, size),
		H0:    make([]float64, size),
	}
	for i := 0; i < size; i++ {
		// A Gaussian pulse plus a seed-dependent ripple.
		center := float64(size) / 2
		d := (float64(i) - center) / (float64(size) / 8)
		p.E0[i] = math.Exp(-d*d) * (1 + 0.1*math.Sin(float64(seed)+float64(i)))
	}
	return p
}

// SolveSequential runs the reference simulation and returns the final E and
// H fields.
func (p *EMProblem) SolveSequential() ([]float64, []float64) {
	e := make([]float64, p.Size)
	h := make([]float64, p.Size)
	copy(e, p.E0)
	copy(h, p.H0)
	for s := 0; s < p.Steps; s++ {
		stepE(e, h, p.C, 1, p.Size)
		stepH(h, e, p.C, 0, p.Size-1)
	}
	return e, h
}

// stepE updates e[lo:hi) from adjoining h values: e[i] += c*(h[i]-h[i-1]).
func stepE(e, h []float64, c float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		e[i] += c * (h[i] - h[i-1])
	}
}

// stepH updates h[lo:hi) from adjoining e values: h[i] += c*(e[i+1]-e[i]).
func stepH(h, e []float64, c float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		h[i] += c * (e[i+1] - e[i])
	}
}

func eBoundaryVar(i int) string { return "E" + strconv.Itoa(i) }
func hBoundaryVar(i int) string { return "H" + strconv.Itoa(i) }

// EMResult reports a parallel field computation.
type EMResult struct {
	// E and H are the process's owned slices of the final fields, at
	// indices [Lo, Hi).
	E, H   []float64
	Lo, Hi int
}

// SolveEMField runs the Figure 4 computation on the mixed-consistency
// memory: the grid is block-partitioned, interior values stay in process
// memory, and each process publishes only its boundary samples to the
// shared memory — the "ghost copies" the paper notes move from the
// programmer's responsibility to the memory system's. Each phase writes a
// boundary variable exactly once and reads only variables written in prior
// phases, so the program is PRAM-consistent and PRAM reads suffice
// (Corollary 2).
//
// Every process must call SolveEMField; each returns its own block. By
// default the boundary reads are PRAM; opts.ReadLabel == LabelCausal selects
// causal reads instead — the same dataflow with Definition 2 guarantees, the
// workload the causal-scoped placement rows of the A3 ablation measure.
func SolveEMField(p core.Process, prob *EMProblem, opts SolveOptions) EMResult {
	read := core.ReadPRAMFloat
	if opts.ReadLabel == history.LabelCausal {
		read = core.ReadCausalFloat
	}
	n := p.N()
	lo, hi := blockRange(prob.Size, n, p.ID())

	// Local field blocks with one ghost cell on each side.
	e := make([]float64, prob.Size)
	h := make([]float64, prob.Size)
	copy(e, prob.E0)
	copy(h, prob.H0)

	leftNeighbor := p.ID() > 0
	rightNeighbor := p.ID() < n-1

	// Publish initial boundary samples needed by neighbors in step 1:
	// the left neighbor's H (for E updates) and the right neighbor's E
	// (for H updates).
	if rightNeighbor {
		core.WriteFloat(p, hBoundaryVar(hi-1), h[hi-1])
	}
	if leftNeighbor {
		core.WriteFloat(p, eBoundaryVar(lo), e[lo])
	}
	p.Barrier()

	for s := 0; s < prob.Steps; s++ {
		// E phase: e[i] += C*(h[i]-h[i-1]); i == lo needs h[lo-1] from the
		// left neighbor's last publish.
		if leftNeighbor {
			h[lo-1] = read(p, hBoundaryVar(lo-1))
		}
		elo := lo
		if elo == 0 {
			elo = 1 // global boundary is fixed
		}
		stepE(e, h, prob.C, elo, hi)
		if leftNeighbor {
			core.WriteFloat(p, eBoundaryVar(lo), e[lo])
		}
		p.Barrier()

		// H phase: h[i] += C*(e[i+1]-e[i]); i == hi-1 needs e[hi] from the
		// right neighbor's publish.
		if rightNeighbor {
			e[hi] = read(p, eBoundaryVar(hi))
		}
		hhi := hi
		if hhi == prob.Size {
			hhi = prob.Size - 1 // global boundary is fixed
		}
		stepH(h, e, prob.C, lo, hhi)
		if rightNeighbor {
			core.WriteFloat(p, hBoundaryVar(hi-1), h[hi-1])
		}
		p.Barrier()
	}

	return EMResult{E: e[lo:hi], H: h[lo:hi], Lo: lo, Hi: hi}
}

// EMFieldScope returns the access-pattern placement for SolveEMField's
// shared variables (Section 6's closing optimization): a published E
// boundary at index i is read only by the owner of cell i-1, and a published
// H boundary at index i only by the owner of cell i+1, so each update can be
// sent to exactly one process instead of broadcast. Use it as
// core.Config.Placement — with PRAMOnly for the PRAM-read variant of the
// program (it is PRAM-consistent, so both optimizations apply), or with
// causal set, which also registers every reader as a causal reader, for the
// ReadLabel == LabelCausal variant: boundary updates then ship
// dependency-stamped to their single reader instead of broadcast.
func EMFieldScope(size, procs int, causal bool) *dsm.ScopeMap {
	owner := func(cell int) int {
		if cell < 0 {
			return 0
		}
		if cell >= size {
			return procs - 1
		}
		// Invert the block partition of SolveEMField.
		for p := 0; p < procs; p++ {
			if lo, hi := blockRange(size, procs, p); cell >= lo && cell < hi {
				return p
			}
		}
		return procs - 1
	}
	scope := &dsm.ScopeMap{Readers: make(map[string][]int)}
	if causal {
		scope.CausalReaders = make(map[string][]int)
	}
	register := func(loc string, reader int) {
		scope.Readers[loc] = []int{reader}
		if causal {
			scope.CausalReaders[loc] = []int{reader}
		}
	}
	for i := 0; i < size; i++ {
		register(eBoundaryVar(i), owner(i-1))
		register(hBoundaryVar(i), owner(i+1))
	}
	return scope
}
