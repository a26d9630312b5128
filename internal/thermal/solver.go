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
// After the first Step on a grid it performs no per-Step allocations.
type Explicit struct {
	// Workers caps the row-band goroutines used per substep. 0 picks
	// automatically (GOMAXPROCS for grids of at least parallelCells
	// cells, serial below); 1 forces the serial kernel. Each explicit
	// substep is embarrassingly parallel over cells, so the bands
	// produce bit-identical results at any worker count.
	Workers int

	scratch []float64
	zero    []float64
	lp      [][]float64
	// Per-grid decisions (scratch sizing, worker count) are hoisted out
	// of the substep loop: they are recomputed only when Step sees a
	// different *Grid than the previous call. Changing Workers between
	// Steps on the same grid therefore requires a fresh Explicit value.
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
		if cap(e.scratch) < len(s.T) {
			e.scratch = make([]float64, len(s.T))
		}
		if cap(e.zero) < g.NX {
			e.zero = make([]float64, g.NX)
		}
		e.workers = e.workerCount(g)
		e.grid = g
	}
	e.lp = g.layerPower(power, e.lp)
	lp := e.lp
	zeros := e.zero[:g.NX]
	cur, next := s.T, e.scratch[:len(s.T)]
	rows := g.NL * g.NY
	workers := e.workers
	for it := 0; it < n; it++ {
		if workers <= 1 {
			stepRows(g, cur, next, lp, zeros, sub, 0, rows)
		} else {
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				r0, r1 := k*rows/workers, (k+1)*rows/workers
				if r0 == r1 {
					continue
				}
				wg.Add(1)
				go func(cur, next []float64, r0, r1 int) {
					defer wg.Done()
					stepRows(g, cur, next, lp, zeros, sub, r0, r1)
				}(cur, next, r0, r1)
			}
			wg.Wait()
		}
		cur, next = next, cur
	}
	if &cur[0] != &s.T[0] {
		copy(s.T, cur)
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
	totals := make([]float64, len(power.Frames))
	total := 0.0
	for i, f := range power.Frames {
		totals[i] = f.Sum()
		total += totals[i]
	}
	plane := float64(g.NX * g.NY)
	layerT := make([]float64, g.NL)
	layerT[g.NL-1] = g.Ambient + total/(g.gConv*plane)
	flow := total
	ai := len(g.active) - 1
	for l := g.NL - 2; l >= 0; l-- {
		// Power injected above this interface never crosses it.
		if ai >= 0 && g.active[ai] == l+1 {
			flow -= totals[ai]
			ai--
		}
		layerT[l] = layerT[l+1] + flow/(g.gUp[l]*plane)
	}
	for l := 0; l < g.NL; l++ {
		base := l * g.NX * g.NY
		for i := 0; i < g.NX*g.NY; i++ {
			s.T[base+i] = layerT[l]
		}
	}
	return nil
}

// SolveSteady relaxes the state to the steady-state solution for the given
// power input using SOR, and returns the iteration count. The state is used
// as the starting guess; use WarmStart first when no better guess exists.
// It works in place on the state and allocates nothing per call.
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
	const omega = 1.85
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	t := s.T
	for it := 1; it <= maxIters; it++ {
		maxDelta := 0.0
		// Active planes are ascending, so a single cursor pairs each
		// layer with its power frame without allocating.
		ai := 0
		for l := 0; l < nl; l++ {
			gl := g.gLat[l]
			base := l * plane
			top := l == nl-1
			var gUp, gDown float64
			if l < nl-1 {
				gUp = g.gUp[l]
			}
			if l > 0 {
				gDown = g.gUp[l-1]
			}
			var pw []float64
			if ai < len(g.active) && g.active[ai] == l {
				pw = power.Frames[ai].Data
				ai++
			}
			for iy := 0; iy < ny; iy++ {
				row := base + iy*nx
				for ix := 0; ix < nx; ix++ {
					i := row + ix
					num, den := 0.0, 0.0
					if ix > 0 {
						num += gl * t[i-1]
						den += gl
					}
					if ix < nx-1 {
						num += gl * t[i+1]
						den += gl
					}
					if iy > 0 {
						num += gl * t[i-nx]
						den += gl
					}
					if iy < ny-1 {
						num += gl * t[i+nx]
						den += gl
					}
					if gDown != 0 {
						num += gDown * t[i-plane]
						den += gDown
					}
					if gUp != 0 {
						num += gUp * t[i+plane]
						den += gUp
					}
					if top {
						num += g.gConv * g.Ambient
						den += g.gConv
					}
					if pw != nil {
						num += pw[i-base]
					}
					gs := num / den
					nv := t[i] + omega*(gs-t[i])
					if d := math.Abs(nv - t[i]); d > maxDelta {
						maxDelta = d
					}
					t[i] = nv
				}
			}
		}
		if maxDelta < tol {
			return it, nil
		}
	}
	return maxIters, fmt.Errorf("thermal: steady solve did not converge in %d iterations", maxIters)
}
