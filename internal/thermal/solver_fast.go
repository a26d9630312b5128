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
// reference (validated to 1e-9 in solver_equiv_test.go). Every new
// value depends only on the old field, which is what makes the in-place
// staging and the row-band parallelism of substepBand safe.

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

// stepRow advances row iy of layer l by one explicit substep into o. c
// holds the row's values before the substep and nn, ss, dd, uu those of
// the rows north, south, below and above it; an absent neighbour is
// passed as c itself, and its zero conductance makes the term vanish
// exactly — no per-cell branches. pw is the row's injected power, nil
// off the active layers (zeros then stands in for it).
func stepRow(g *Grid, l, iy int, c, nn, ss, dd, uu, pw, zeros, o []float64, dt float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	gl := g.gLat[l]
	invC := dt / g.capC[l]

	gN, gS, gDown, gUp, convG := 0.0, 0.0, 0.0, 0.0, 0.0
	if iy > 0 {
		gN = gl
	}
	if iy < ny-1 {
		gS = gl
	}
	if l > 0 {
		gDown = g.gUp[l-1]
	}
	if l < nl-1 {
		gUp = g.gUp[l]
	} else {
		convG = g.gConv
	}
	powered := pw != nil
	if !powered {
		pw = zeros
	}
	// Every row is nx long; saying so once lets the compiler drop the
	// bounds checks in the loops below.
	c, nn, ss, dd, uu, pw, o = c[:nx], nn[:nx], ss[:nx], dd[:nx], uu[:nx], pw[:nx], o[:nx]

	cp := convG * g.Ambient // row-constant convective inflow at ambient
	gEdge := gl + gN + gS + gDown + gUp + convG
	gInt := gEdge + gl

	if nx == 1 {
		t := c[0]
		o[0] = stepCell(t, gN*nn[0]+gS*ss[0], gDown, dd[0], gUp, uu[0], cp, pw[0], gEdge-gl, invC)
		return
	}
	o[0] = stepCell(c[0], gl*c[1]+gN*nn[0]+gS*ss[0], gDown, dd[0], gUp, uu[0], cp, pw[0], gEdge, invC)

	if !powered && l > 0 && l < nl-1 && iy > 0 && iy < ny-1 {
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

// substepBand advances rows y0…y1−1 of every layer of t by one explicit
// substep, in place. The substep is Jacobi — every new value comes from
// the old field — so each layer's new rows are staged (cur) and written
// back only after the layer above has read the old ones: t keeps the
// old values of every layer a row still reads, and the stage holds two
// layers' worth of the band's rows instead of a second full field.
// Rows y0−1 and y1 belong to the neighbouring bands, which may already
// have written them back, so their old values come from halo (see
// saveHalos). The band reads no other band's rows of t and writes only
// its own, so distinct bands may run concurrently.
func (e *Explicit) substepBand(g *Grid, t []float64, power [][]float64, zeros []float64, dt float64, k, y0, y1 int) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	cur := e.scratch[y0*nx : y1*nx]
	prev := e.scratch[plane+y0*nx : plane+y1*nx]
	halo := e.scratch[2*plane:]
	for l := 0; l < nl; l++ {
		base := l * plane
		for iy := y0; iy < y1; iy++ {
			i0 := base + iy*nx
			c := t[i0 : i0+nx]
			nn, ss, dd, uu := c, c, c, c
			switch {
			case iy == 0:
			case iy == y0:
				h := ((k-1)*nl + l) * 2 * nx
				nn = halo[h : h+nx]
			default:
				nn = t[i0-nx : i0]
			}
			switch {
			case iy == ny-1:
			case iy == y1-1:
				h := (k*nl+l)*2*nx + nx
				ss = halo[h : h+nx]
			default:
				ss = t[i0+nx : i0+2*nx]
			}
			if l > 0 {
				dd = t[i0-plane : i0-plane+nx]
			}
			if l < nl-1 {
				uu = t[i0+plane : i0+plane+nx]
			}
			var pw []float64
			if power[l] != nil {
				pw = power[l][iy*nx : iy*nx+nx]
			}
			o := cur[(iy-y0)*nx : (iy-y0+1)*nx]
			stepRow(g, l, iy, c, nn, ss, dd, uu, pw, zeros, o, dt)
		}
		if l > 0 {
			copy(t[base-plane+y0*nx:base-plane+y1*nx], prev)
		}
		cur, prev = prev, cur
	}
	copy(t[(nl-1)*plane+y0*nx:(nl-1)*plane+y1*nx], prev)
}

// saveHalos copies, for every boundary between two of the substep's
// row bands and every layer, the two old rows that meet there: the
// upper band's last row (the lower band's north neighbour) and the lower
// band's first row (the upper band's south neighbour).
func (e *Explicit) saveHalos(g *Grid, t []float64, bands int) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	halo := e.scratch[2*plane:]
	for b := 1; b < bands; b++ {
		yb := b * ny / bands
		for l := 0; l < nl; l++ {
			h := ((b-1)*nl + l) * 2 * nx
			i0 := l*plane + yb*nx
			copy(halo[h:h+nx], t[i0-nx:i0])
			copy(halo[h+nx:h+2*nx], t[i0:i0+nx])
		}
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
	return max(1, min(w, g.NY))
}
