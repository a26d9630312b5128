package thermal

import (
	"fmt"
	"math"
)

// Reference kernels. These are the original, branchy, textbook
// formulations of the explicit substep, the Douglas–Gunn ADI substep and
// the steady-state SOR sweep. The optimized kernels in solver_fast.go,
// solver_adi.go and solver.go are validated against them cell-for-cell
// (see solver_equiv_test.go); keep these in sync with the physics, never
// with the optimizations.

// stepOnceRef performs one explicit substep from cur into next,
// evaluating the boundary conditions with per-cell branches. power holds
// one plane slice per grid layer (nil for passive layers).
func stepOnceRef(g *Grid, cur, next []float64, power [][]float64, dt float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	for l := 0; l < nl; l++ {
		gl := g.gLat[l]
		invC := dt / g.capC[l]
		base := l * plane
		top := l == nl-1
		pw := power[l]
		var gUp, gDown float64
		if l < nl-1 {
			gUp = g.gUp[l]
		}
		if l > 0 {
			gDown = g.gUp[l-1]
		}
		for iy := 0; iy < ny; iy++ {
			row := base + iy*nx
			for ix := 0; ix < nx; ix++ {
				i := row + ix
				t := cur[i]
				flux := 0.0
				if ix > 0 {
					flux += gl * (cur[i-1] - t)
				}
				if ix < nx-1 {
					flux += gl * (cur[i+1] - t)
				}
				if iy > 0 {
					flux += gl * (cur[i-nx] - t)
				}
				if iy < ny-1 {
					flux += gl * (cur[i+nx] - t)
				}
				if gDown != 0 {
					flux += gDown * (cur[i-plane] - t)
				}
				if gUp != 0 {
					flux += gUp * (cur[i+plane] - t)
				}
				if top {
					flux += g.gConv * (g.Ambient - t)
				}
				if pw != nil {
					flux += pw[i-base]
				}
				next[i] = t + flux*invC
			}
		}
	}
}

// adiStepRef performs one Douglas–Gunn ADI substep on u in the naive
// textbook way: the explicit RHS is taken as the forward-Euler update of
// stepOnceRef, and each directional system is assembled into freshly
// allocated tridiagonal bands and solved with a generic Thomas solver.
// ADI.Step held to one substep is validated against this cell for cell
// (see solver_adi_test.go). power holds one plane slice per grid layer
// (nil for passive layers).
func adiStepRef(g *Grid, u []float64, power [][]float64, dt float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	cells := nl * plane

	// r = dt·F(u) = (explicit substep of size dt) − u.
	r := make([]float64, cells)
	stepOnceRef(g, u, r, power, dt)
	for i := range r {
		r[i] -= u[i]
	}

	// x sweep: (I − dt/2·A₁) w = r, one system per (layer, iy) line.
	for l := 0; l < nl; l++ {
		alpha := dt * g.gLat[l] / (2 * g.capC[l])
		for iy := 0; iy < ny; iy++ {
			a, b, c, d := make([]float64, nx), make([]float64, nx), make([]float64, nx), make([]float64, nx)
			for ix := 0; ix < nx; ix++ {
				b[ix] = 1
				if ix > 0 {
					a[ix] = -alpha
					b[ix] += alpha
				}
				if ix < nx-1 {
					c[ix] = -alpha
					b[ix] += alpha
				}
				d[ix] = r[(l*ny+iy)*nx+ix]
			}
			x := thomasRef(a, b, c, d)
			for ix := 0; ix < nx; ix++ {
				r[(l*ny+iy)*nx+ix] = x[ix]
			}
		}
	}

	// y sweep: one system per (layer, ix) column of the plane.
	for l := 0; l < nl; l++ {
		alpha := dt * g.gLat[l] / (2 * g.capC[l])
		for ix := 0; ix < nx; ix++ {
			a, b, c, d := make([]float64, ny), make([]float64, ny), make([]float64, ny), make([]float64, ny)
			for iy := 0; iy < ny; iy++ {
				b[iy] = 1
				if iy > 0 {
					a[iy] = -alpha
					b[iy] += alpha
				}
				if iy < ny-1 {
					c[iy] = -alpha
					b[iy] += alpha
				}
				d[iy] = r[(l*ny+iy)*nx+ix]
			}
			x := thomasRef(a, b, c, d)
			for iy := 0; iy < ny; iy++ {
				r[(l*ny+iy)*nx+ix] = x[iy]
			}
		}
	}

	// z sweep: one system per (ix, iy) column through the layers, with
	// the convective conductance on the top layer's diagonal.
	for j := 0; j < plane; j++ {
		a, b, c, d := make([]float64, nl), make([]float64, nl), make([]float64, nl), make([]float64, nl)
		for l := 0; l < nl; l++ {
			b[l] = 1
			if l > 0 {
				bd := dt * g.gUp[l-1] / (2 * g.capC[l])
				a[l] = -bd
				b[l] += bd
			}
			if l < nl-1 {
				bu := dt * g.gUp[l] / (2 * g.capC[l])
				c[l] = -bu
				b[l] += bu
			} else {
				b[l] += dt * g.gConv / (2 * g.capC[l])
			}
			d[l] = r[l*plane+j]
		}
		x := thomasRef(a, b, c, d)
		for l := 0; l < nl; l++ {
			r[l*plane+j] = x[l]
		}
	}

	for i := range u {
		u[i] += r[i]
	}
}

// thomasRef solves the tridiagonal system (a, b, c)·x = d with the
// textbook Thomas algorithm (a is the sub-diagonal, c the super-
// diagonal; a[0] and c[n-1] are ignored).
func thomasRef(a, b, c, d []float64) []float64 {
	n := len(d)
	cp := make([]float64, n)
	dp := make([]float64, n)
	cp[0] = c[0] / b[0]
	dp[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		den := b[i] - a[i]*cp[i-1]
		cp[i] = c[i] / den
		dp[i] = (d[i] - a[i]*dp[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x
}

// solveSteadyRef is the lexicographic point SOR that SolveSteady's
// wavefront schedule reproduces bit for bit: every layer bottom-up, every
// row, every column in order, each cell through one branchy update. The
// wavefront kernel in solver.go is validated against it cell-for-cell,
// sweep count and error included (see solver_equiv_test.go).
func solveSteadyRef(g *Grid, s *State, power *Power, tol float64, maxIters int) (int, error) {
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
