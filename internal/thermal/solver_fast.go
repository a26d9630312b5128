package thermal

import "runtime"

// Optimized explicit kernel. The explicit solver spends essentially all
// of its time in a 3-D seven-point stencil whose textbook form (solver_ref.go) pays
// seven data-dependent branches per cell for boundary handling. The
// kernels here peel the boundaries instead: per row, every absent
// neighbour gets a zero conductance paired with a subslice that aliases
// the row itself, so the interior loops are branch-free and bounds-check
// friendly. The kernel additionally rewrites the flux into sum
// form, Σ gᵢ·Tᵢ − gSum·T with gSum hoisted per row, which nearly halves
// the per-cell FP work; the reassociation stays within a few ulp of the
// reference (validated to 1e-9 in solver_equiv_test.go). Rows are
// independent in the explicit substep, which is what makes row-band
// parallelism safe.

// parallelCells is the grid size above which Explicit.Step fans substeps
// out across row-band goroutines by default. Below it the fork/join
// overhead (a few µs per substep, ~20-75 substeps per Step) outweighs
// the win. At 100 µm the 7 nm and 10 nm single-die grids stay serial;
// the 14 nm grid (91×62×9 = 50,778 cells) splits.
const parallelCells = 32768

// stepCell computes one explicit-substep cell in sum form given the
// lateral contribution lat (already multiplied by the conductances) and
// the cell's total conductance gSum. cp holds the row-constant
// convection+power-free additive term convG·ambient; pwv the cell's
// injected power (0 off the active layer).
func stepCell(t, lat, gDown, down, gUp, up, cp, pwv, gSum, invC float64) float64 {
	flux := lat + (gDown*down + gUp*up) + (cp + pwv) - gSum*t
	return t + flux*invC
}

// stepRows advances rows [r0, r1) of the explicit substep from cur into
// next; a row is one (layer, iy) line of NX cells, so global row r
// starts at flat index r*NX. power holds one plane slice per grid layer
// (nil for passive layers — see Grid.layerPower). It only reads cur and
// writes disjoint rows of next, so distinct ranges may run concurrently.
func stepRows(g *Grid, cur, next []float64, power [][]float64, zeros []float64, dt float64, r0, r1 int) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	amb := g.Ambient
	for r := r0; r < r1; r++ {
		l, iy := r/ny, r%ny
		gl := g.gLat[l]
		invC := dt / g.capC[l]
		i0 := r * nx

		// Zero conductances stand in for absent neighbours: the matching
		// subslice aliases the row itself, the loaded value is multiplied
		// by 0, and the term vanishes exactly — no per-cell branches.
		gN, gS, gDown, gUp, convG := 0.0, 0.0, 0.0, 0.0, 0.0
		nOff, sOff, dOff, uOff := 0, 0, 0, 0
		if iy > 0 {
			gN, nOff = gl, nx
		}
		if iy < ny-1 {
			gS, sOff = gl, nx
		}
		if l > 0 {
			gDown, dOff = g.gUp[l-1], plane
		}
		if l < nl-1 {
			gUp, uOff = g.gUp[l], plane
		} else {
			convG = g.gConv
		}
		c := cur[i0 : i0+nx]
		nn := cur[i0-nOff : i0-nOff+nx]
		ss := cur[i0+sOff : i0+sOff+nx]
		dd := cur[i0-dOff : i0-dOff+nx]
		uu := cur[i0+uOff : i0+uOff+nx]
		pw := zeros[:nx]
		lpw := power[l]
		if lpw != nil {
			pw = lpw[iy*nx : iy*nx+nx]
		}
		o := next[i0 : i0+nx]

		cp := convG * amb // row-constant convective inflow at ambient
		gEdge := gl + gN + gS + gDown + gUp + convG
		gInt := gEdge + gl

		if nx == 1 {
			t := c[0]
			o[0] = stepCell(t, gN*nn[0]+gS*ss[0], gDown, dd[0], gUp, uu[0], cp, pw[0], gEdge-gl, invC)
			continue
		}
		o[0] = stepCell(c[0], gl*c[1]+gN*nn[0]+gS*ss[0], gDown, dd[0], gUp, uu[0], cp, pw[0], gEdge, invC)

		if lpw == nil && l > 0 && l < nl-1 && iy > 0 && iy < ny-1 {
			// Pure-interior row (all of N/S/down/up present, no
			// convection, no power): the dominant case. One lateral
			// conductance multiplies the whole neighbour sum.
			gSum4 := 4*gl + gDown + gUp
			for ix := 1; ix < nx-1; ix++ {
				t := c[ix]
				lat := (c[ix-1] + c[ix+1]) + (nn[ix] + ss[ix])
				flux := gl*lat + (gDown*dd[ix] + gUp*uu[ix]) - gSum4*t
				o[ix] = t + flux*invC
			}
		} else {
			for ix := 1; ix < nx-1; ix++ {
				t := c[ix]
				lat := gl*(c[ix-1]+c[ix+1]) + (gN*nn[ix] + gS*ss[ix])
				o[ix] = stepCell(t, lat, gDown, dd[ix], gUp, uu[ix], cp, pw[ix], gInt, invC)
			}
		}
		ix := nx - 1
		o[ix] = stepCell(c[ix], gl*c[ix-1]+gN*nn[ix]+gS*ss[ix], gDown, dd[ix], gUp, uu[ix], cp, pw[ix], gEdge, invC)
	}
}

// workerCount resolves how many row-band goroutines an explicit substep
// over g should use, honouring the test-only maxWorkers override.
func (e *Explicit) workerCount(g *Grid) int {
	w := e.maxWorkers
	if w == 0 {
		if g.Cells() < parallelCells {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, g.NL*g.NY))
}
