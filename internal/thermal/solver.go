package thermal

import (
	"fmt"
	"math"
	"sync"

	"hotgauge/internal/obs"
)

// Solver advances a thermal state by one simulation timestep under a
// power input (W per cell, one frame per active plane). Implementations:
// Explicit (default, the forward-Euler reference) and ADI
// (alternating-direction-implicit with adaptive substepping: the
// unconditionally stable campaign fast solver and divergence fallback).
//
// Solvers carry reusable scratch buffers, so a Solver value must not be
// shared between concurrent Step calls; give each goroutine its own.
type Solver interface {
	// Step advances s by dt seconds with the given per-active-plane
	// power frames.
	Step(g *Grid, s *State, power *Power, dt float64) error
	// Name identifies the solver in reports and benchmarks.
	Name() string
}

// NewSolver constructs a stock solver by name: "" or "explicit" (the
// forward-Euler reference; tol is ignored) or "adi" (the adaptive ADI
// fast solver; tol sets ADI.ErrTol). "implicit" is an alias for "adi",
// kept so that existing scripts and journaled specs keep working. A zero
// tol keeps the solver's documented default; a NaN or infinite tol is
// rejected. This is the seam CLI flags and wire specs use, so the names
// double as the stable external vocabulary for solver selection.
func NewSolver(name string, tol float64) (Solver, error) {
	if math.IsNaN(tol) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("thermal: solver tolerance %v is not finite", tol)
	}
	switch name {
	case "", "explicit":
		return &Explicit{}, nil
	case "adi", "implicit":
		return &ADI{ErrTol: tol}, nil
	default:
		return nil, fmt.Errorf("thermal: unknown solver %q (want explicit, implicit or adi)", name)
	}
}

// Explicit is the forward-Euler transient solver with automatic
// stability-bounded substepping (≈10 µs substeps for the default stack at
// 100 µm resolution, so a 200 µs simulation timestep runs ~20 substeps).
// Each substep updates the state in place: new values are staged two
// layers at a time and written back once nothing reads the old ones
// (substepBand), so the solver's scratch is two planes rather than a
// second copy of the field. After the first Step on a grid a serial Step
// performs no allocations; the row-band fan-out (grids of at least
// parallelCells cells) allocates its goroutines and wait group every
// substep. Bands split each layer's rows; the band count is GOMAXPROCS
// (capped at NY) on those grids and 1 below. Every cell's update reads
// the same old values whatever the band count, so the bands produce
// bit-identical results at any count.
type Explicit struct {
	// maxWorkers, when non-zero, overrides the automatic band count so
	// tests can pin the serial and the fanned-out kernel on one grid.
	maxWorkers int

	// scratch holds the two staging planes, then the halo rows of
	// every band boundary (two rows per layer per boundary).
	scratch []float64
	zero    []float64
	lp      [][]float64
	// Per-grid decisions (scratch sizing, worker count) are hoisted out
	// of the substep loop: they are recomputed only when Step sees a
	// different *Grid than the previous call.
	grid    *Grid
	workers int

	// Substeps, when set, counts the stability-bounded substeps executed
	// (obs counters are nil-safe, so leaving these nil disables
	// instrumentation at no cost).
	Substeps *obs.Counter
	// StabilityHits counts Step calls whose dt exceeded the stable bound
	// and therefore had to be split into more than one substep.
	StabilityHits *obs.Counter
}

// Name implements Solver.
func (e *Explicit) Name() string { return "explicit" }

// Step implements Solver.
func (e *Explicit) Step(g *Grid, s *State, power *Power, dt float64) error {
	if err := g.checkPower(power); err != nil {
		return err
	}
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	n := int(math.Ceil(dt / g.dtStable))
	sub := dt / float64(n)
	e.Substeps.Add(int64(n))
	if n > 1 {
		e.StabilityHits.Inc()
	}
	if e.grid != g {
		e.workers = e.workerCount(g)
		if need := 2*g.NX*g.NY + 2*(e.workers-1)*g.NL*g.NX; cap(e.scratch) < need {
			e.scratch = make([]float64, need)
		}
		if cap(e.zero) < g.NX {
			e.zero = make([]float64, g.NX)
		}
		e.grid = g
	}
	e.lp = g.layerPower(power, e.lp)
	lp := e.lp
	zeros := e.zero[:g.NX]
	workers := e.workers
	for it := 0; it < n; it++ {
		if workers <= 1 {
			e.substepBand(g, s.T, lp, zeros, sub, 0, 0, g.NY)
			continue
		}
		e.saveHalos(g, s.T, workers)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				e.substepBand(g, s.T, lp, zeros, sub, k, k*g.NY/workers, (k+1)*g.NY/workers)
			}(k)
		}
		wg.Wait()
	}
	return nil
}

// WarmStart overwrites the state with the analytic layer-wise solution of
// the 1-D (laterally averaged) network for the given power input. For a
// uniform power map this IS the steady state; for structured maps it is a
// starting guess that removes the slowest (vertical offset) error modes
// from the SOR iteration. With multiple active planes the flux crossing
// interface l↔l+1 is the power injected at or below layer l (all heat
// exits through the top-layer convection), which reduces exactly to the
// legacy single-total formula when only layer 0 injects.
func WarmStart(g *Grid, s *State, power *Power) error {
	if err := g.checkPower(power); err != nil {
		return err
	}
	total := 0.0
	for _, f := range power.Frames {
		total += f.Sum()
	}
	// Fill the layers top-down with a running layer temperature, so the
	// warm start allocates nothing.
	plane := g.NX * g.NY
	layerT := g.Ambient + total/(g.gConv*float64(plane))
	flow := total
	ai := len(g.active) - 1
	for l := g.NL - 1; l >= 0; l-- {
		if l < g.NL-1 {
			// Power injected above this interface never crosses it.
			if ai >= 0 && g.active[ai] == l+1 {
				flow -= power.Frames[ai].Sum()
				ai--
			}
			layerT += flow / (g.gUp[l] * float64(plane))
		}
		layer := s.T[l*plane : (l+1)*plane]
		for i := range layer {
			layer[i] = layerT
		}
	}
	return nil
}

// sorOmega is the over-relaxation factor of SolveSteady's SOR sweeps.
const sorOmega = 1.85

// SolveSteady relaxes the state to the steady-state solution for the given
// power input using SOR, and returns the iteration count. The state is used
// as the starting guess; use WarmStart first when no better guess exists.
// It works in place on the state and allocates nothing per call.
//
// Each sweep is a lexicographic Gauss–Seidel/SOR pass (layers bottom-up,
// rows, columns), run as a row wavefront: within a layer, interior rows
// are relaxed in blocks of four along a skewed diagonal, row r+k taking
// column x−k in the same step. A cell's left and upper neighbours are
// then already updated in this sweep and its right and lower ones are
// not, exactly as in lexicographic order, and every cell computes the
// same sums in the same order. The stop test takes the largest |Δ| of
// the sweep, which does not depend on the visiting order. So every
// value, the sweep count and the stop are bit-identical to the plain
// loop (solveSteadyRef). What changes is the dependency structure: the
// plain loop is one chain that stalls on each cell's divide, the
// wavefront four independent chains the CPU overlaps.
func SolveSteady(g *Grid, s *State, power *Power, tol float64, maxIters int) (int, error) {
	if err := g.checkPower(power); err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-5
	}
	if maxIters <= 0 {
		maxIters = 20000
	}
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	t := s.T
	for it := 1; it <= maxIters; it++ {
		maxDelta := 0.0
		// Active planes are ascending, so a single cursor pairs each
		// layer with its power frame without allocating.
		ai := 0
		for l := 0; l < nl; l++ {
			c := sorLayer{nx: nx, ny: ny, plane: plane, base: l * plane,
				gl: g.gLat[l], gConv: g.gConv, ambient: g.Ambient, top: l == nl-1}
			if l < nl-1 {
				c.gUp = g.gUp[l]
			}
			if l > 0 {
				c.gDown = g.gUp[l-1]
			}
			if ai < len(g.active) && g.active[ai] == l {
				c.pw = power.Frames[ai].Data
				ai++
			}
			maxDelta = c.sweep(t, maxDelta)
		}
		if maxDelta < tol {
			return it, nil
		}
	}
	return maxIters, fmt.Errorf("thermal: steady solve did not converge in %d iterations", maxIters)
}

// sorLayer is one grid layer's share of an SOR sweep: its geometry and
// conductances, and its power plane (nil for passive layers).
type sorLayer struct {
	nx, ny, plane, base int
	gl, gDown, gUp      float64
	gConv, ambient      float64
	top                 bool
	pw                  []float64
}

// sweep relaxes every cell of the layer once and returns maxDelta raised
// to the layer's largest update. Row 0 goes first, then blocks of four
// rows, the last block short when ny−1 is not a multiple of four; every
// block follows the wavefront schedule of wave. Full blocks of interior
// rows on grids at least five columns wide relax their interior columns
// through interior; every other cell (edge rows and columns, the short
// last block, narrow grids) takes relax at the same place in the
// schedule.
func (c *sorLayer) sweep(t []float64, maxDelta float64) float64 {
	nx, ny := c.nx, c.ny
	// The interior-cell denominator, summed in relax's order: four
	// separate adds, since 4·gl can round differently.
	den := 0.0
	den += c.gl
	den += c.gl
	den += c.gl
	den += c.gl
	if c.gDown != 0 {
		den += c.gDown
	}
	if c.gUp != 0 {
		den += c.gUp
	}
	if c.top {
		den += c.gConv
	}
	maxDelta = c.wave(t, 0, 1, 0, nx, maxDelta)
	for r := 1; r < ny; r += 4 {
		if r+4 < ny && nx >= 5 {
			maxDelta = c.wave(t, r, 4, 0, 4, maxDelta)
			maxDelta = c.interior(t, r, den, maxDelta)
			maxDelta = c.wave(t, r, 4, nx-1, nx+3, maxDelta)
		} else {
			rows := min(4, ny-r)
			maxDelta = c.wave(t, r, rows, 0, nx+rows-1, maxDelta)
		}
	}
	return maxDelta
}

// wave runs steps x0…x1−1 of the wavefront over rows r…r+rows−1: step x
// relaxes cell (x−k, r+k) for every k with 0 ≤ x−k < nx. The cells of
// one step are diagonal to each other, so they are independent, and each
// one sees its left and upper neighbours already relaxed in this sweep
// and its right and lower neighbours not yet — the lexicographic order's
// view. A one-row wave is a plain left-to-right pass.
func (c *sorLayer) wave(t []float64, r, rows, x0, x1 int, maxDelta float64) float64 {
	for x := x0; x < x1; x++ {
		for k := 0; k < rows; k++ {
			if ix := x - k; ix >= 0 && ix < c.nx {
				maxDelta = c.relax(t, ix, r+k, maxDelta)
			}
		}
	}
	return maxDelta
}

// interior runs steps 4…nx−2 of the wavefront over interior rows r…r+3
// (1 ≤ r, r+3 ≤ ny−2, nx ≥ 5), where all four cells of a step are
// interior: relax's update without the edge checks, with den hoisted,
// written out for the four chains so that their dependency chains
// overlap. Chain k's last value stays in a register: it is its next
// cell's left neighbour and, one step later, chain k+1's upper one.
func (c *sorLayer) interior(t []float64, r int, den, maxDelta float64) float64 {
	nx := c.nx
	s := nx - 1 // index step from (x−k, r+k) to (x−k−1, r+k+1)
	j0 := c.base + r*nx + 4
	end := j0 + nx - 5
	l0, l1, l2, l3 := t[j0-1], t[j0+s-1], t[j0+2*s-1], t[j0+3*s-1]
	for ; j0 < end; j0++ {
		j1, j2, j3 := j0+s, j0+2*s, j0+3*s
		n0 := c.vertical(t, j0, c.lateral(t, j0, l0, t[j0-nx]))
		n1 := c.vertical(t, j1, c.lateral(t, j1, l1, l0))
		n2 := c.vertical(t, j2, c.lateral(t, j2, l2, l1))
		n3 := c.vertical(t, j3, c.lateral(t, j3, l3, l2))
		n0 = t[j0] + sorOmega*(n0/den-t[j0])
		n1 = t[j1] + sorOmega*(n1/den-t[j1])
		n2 = t[j2] + sorOmega*(n2/den-t[j2])
		n3 = t[j3] + sorOmega*(n3/den-t[j3])
		maxDelta = raise(maxDelta, n0, t[j0])
		maxDelta = raise(maxDelta, n1, t[j1])
		maxDelta = raise(maxDelta, n2, t[j2])
		maxDelta = raise(maxDelta, n3, t[j3])
		t[j0], t[j1], t[j2], t[j3] = n0, n1, n2, n3
		l0, l1, l2, l3 = n0, n1, n2, n3
	}
	return maxDelta
}

// lateral starts relax's numerator for interior cell j, given the current
// values of its left and upper neighbours. It and vertical are split so
// that each stays under the inliner's budget.
func (c *sorLayer) lateral(t []float64, j int, left, up float64) float64 {
	num := 0.0
	num += c.gl * left
	num += c.gl * t[j+1]
	num += c.gl * up
	num += c.gl * t[j+c.nx]
	return num
}

// vertical adds the rest of relax's numerator for cell j to num: the
// layers below and above, the convective boundary and the power.
func (c *sorLayer) vertical(t []float64, j int, num float64) float64 {
	if c.gDown != 0 {
		num += c.gDown * t[j-c.plane]
	}
	if c.gUp != 0 {
		num += c.gUp * t[j+c.plane]
	}
	if c.top {
		num += c.gConv * c.ambient
	}
	if c.pw != nil {
		num += c.pw[j-c.base]
	}
	return num
}

// raise returns maxDelta raised to |nv − old|. Like relax's test, it
// skips a NaN difference.
func raise(maxDelta, nv, old float64) float64 {
	if d := math.Abs(nv - old); d > maxDelta {
		return d
	}
	return maxDelta
}

// relax applies the general SOR update to cell (ix, iy): the reference
// formula, with every edge check.
func (c *sorLayer) relax(t []float64, ix, iy int, maxDelta float64) float64 {
	nx := c.nx
	i := c.base + iy*nx + ix
	num, den := 0.0, 0.0
	if ix > 0 {
		num += c.gl * t[i-1]
		den += c.gl
	}
	if ix < nx-1 {
		num += c.gl * t[i+1]
		den += c.gl
	}
	if iy > 0 {
		num += c.gl * t[i-nx]
		den += c.gl
	}
	if iy < c.ny-1 {
		num += c.gl * t[i+nx]
		den += c.gl
	}
	if c.gDown != 0 {
		num += c.gDown * t[i-c.plane]
		den += c.gDown
	}
	if c.gUp != 0 {
		num += c.gUp * t[i+c.plane]
		den += c.gUp
	}
	if c.top {
		num += c.gConv * c.ambient
		den += c.gConv
	}
	if c.pw != nil {
		num += c.pw[i-c.base]
	}
	gs := num / den
	nv := t[i] + sorOmega*(gs-t[i])
	if d := math.Abs(nv - t[i]); d > maxDelta {
		maxDelta = d
	}
	t[i] = nv
	return maxDelta
}
