package apps

import (
	"math"
	"strconv"

	"mixedmem/internal/core"
)

// EM2DProblem is the two-dimensional variant of the Figure 4 computation: a
// TE-mode FDTD grid with one electric component (Ez) and two magnetic
// components (Hx, Hy) on a staggered N-by-N grid. The computation alternates
// phases in which adjoining H values update E values and adjoining E values
// update H values, exactly the structure the paper describes; the extra
// dimension makes the boundary exchange a row of samples instead of a single
// one.
type EM2DProblem struct {
	// N is the grid edge length.
	N int
	// Steps is the number of full E+H update steps.
	Steps int
	// C is the update coefficient.
	C float64
	// Ez0 is the initial electric field, N*N row-major.
	Ez0 []float64
}

// GenEM2DProblem builds an N-by-N grid with a seeded Gaussian excitation.
func GenEM2DProblem(n, steps int, seed int64) *EM2DProblem {
	p := &EM2DProblem{
		N:     n,
		Steps: steps,
		C:     0.3,
		Ez0:   make([]float64, n*n),
	}
	cx, cy := float64(n)/2, float64(n)/3
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			dr := (float64(r) - cy) / (float64(n) / 6)
			dc := (float64(c) - cx) / (float64(n) / 6)
			p.Ez0[r*n+c] = gauss2(dr, dc) * (1 + 0.05*float64(seed%7))
		}
	}
	return p
}

func gauss2(a, b float64) float64 {
	return math.Exp(-(a*a + b*b))
}

// step2E updates ez on rows [rlo, rhi) of an n-wide grid:
// ez[r][c] += C*((hy[r][c]-hy[r][c-1]) - (hx[r][c]-hx[r-1][c])),
// for interior cells (r >= 1, c >= 1).
func step2E(ez, hx, hy []float64, cfl float64, n, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		if r == 0 {
			continue
		}
		for c := 1; c < n; c++ {
			ez[r*n+c] += cfl * ((hy[r*n+c] - hy[r*n+c-1]) - (hx[r*n+c] - hx[(r-1)*n+c]))
		}
	}
}

// step2H updates hx and hy on rows [rlo, rhi):
// hx[r][c] -= C*(ez[r+1][c]-ez[r][c]) for r < n-1;
// hy[r][c] += C*(ez[r][c+1]-ez[r][c]) for c < n-1.
func step2H(ez, hx, hy []float64, cfl float64, n, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		for c := 0; c < n; c++ {
			if r < n-1 {
				hx[r*n+c] -= cfl * (ez[(r+1)*n+c] - ez[r*n+c])
			}
			if c < n-1 {
				hy[r*n+c] += cfl * (ez[r*n+c+1] - ez[r*n+c])
			}
		}
	}
}

// SolveSequential runs the 2-D reference simulation.
func (p *EM2DProblem) SolveSequential() (ez, hx, hy []float64) {
	n := p.N
	ez = make([]float64, n*n)
	hx = make([]float64, n*n)
	hy = make([]float64, n*n)
	copy(ez, p.Ez0)
	for s := 0; s < p.Steps; s++ {
		step2E(ez, hx, hy, p.C, n, 0, n)
		step2H(ez, hx, hy, p.C, n, 0, n)
	}
	return ez, hx, hy
}

func ezRowVar(r, c int) string { return "ez" + strconv.Itoa(r) + "_" + strconv.Itoa(c) }
func hxRowVar(r, c int) string { return "hx" + strconv.Itoa(r) + "_" + strconv.Itoa(c) }

// EM2DResult reports a process's block of the final fields.
type EM2DResult struct {
	Ez, Hx, Hy []float64 // rows [RLo, RHi), row-major, width N
	RLo, RHi   int
}

// SolveEM2DField runs the 2-D computation with row-block partitioning:
// process p owns rows [rlo, rhi). Per step it reads the upper neighbor's
// published bottom Hx row (for its first Ez row), updates Ez, publishes its
// top Ez row, crosses a barrier, reads the lower neighbor's published top Ez
// row (for its last Hx row), updates H, publishes its bottom Hx row, and
// crosses a second barrier. Only two boundary rows per process per step
// touch shared memory; PRAM reads suffice (the program is PRAM-consistent).
func SolveEM2DField(p core.Process, prob *EM2DProblem, _ SolveOptions) EM2DResult {
	n := prob.N
	procs := p.N()
	rlo, rhi := blockRange(n, procs, p.ID())

	ez := make([]float64, n*n)
	hx := make([]float64, n*n)
	hy := make([]float64, n*n)
	copy(ez, prob.Ez0)

	up := p.ID() > 0
	down := p.ID() < procs-1

	publishEzTop := func() {
		if up {
			for c := 0; c < n; c++ {
				core.WriteFloat(p, ezRowVar(rlo, c), ez[rlo*n+c])
			}
		}
	}
	publishHxBottom := func() {
		if down {
			for c := 0; c < n; c++ {
				core.WriteFloat(p, hxRowVar(rhi-1, c), hx[(rhi-1)*n+c])
			}
		}
	}

	// Initial publishes mirror the 1-D variant: neighbors need the starting
	// boundary rows for step 0.
	publishHxBottom()
	publishEzTop()
	p.Barrier()

	for s := 0; s < prob.Steps; s++ {
		// E phase: row rlo needs hx[rlo-1][*] from the upper neighbor.
		if up {
			for c := 0; c < n; c++ {
				hx[(rlo-1)*n+c] = core.ReadPRAMFloat(p, hxRowVar(rlo-1, c))
			}
		}
		step2E(ez, hx, hy, prob.C, n, rlo, rhi)
		publishEzTop()
		p.Barrier()

		// H phase: row rhi-1 needs ez[rhi][*] from the lower neighbor.
		if down {
			for c := 0; c < n; c++ {
				ez[rhi*n+c] = core.ReadPRAMFloat(p, ezRowVar(rhi, c))
			}
		}
		step2H(ez, hx, hy, prob.C, n, rlo, rhi)
		publishHxBottom()
		p.Barrier()
	}

	return EM2DResult{
		Ez: ez[rlo*n : rhi*n], Hx: hx[rlo*n : rhi*n], Hy: hy[rlo*n : rhi*n],
		RLo: rlo, RHi: rhi,
	}
}
