package core

import (
	"math"

	"hotgauge/internal/geometry"
)

// MLTDAt computes the maximum localized temperature difference at cell
// (ix, iy): the cell's temperature minus the minimum temperature within
// the definition's radius. Cells whose stencil extends off the die use the
// on-die portion only (the die edge is adiabatic; there is nothing beyond
// it to time against).
func (a *Analyzer) MLTDAt(f *geometry.Field, ix, iy int) float64 {
	a.checkShape(f)
	return a.mltdAt(f.Data, ix, iy)
}

// mltdAt is MLTDAt on a field already checked against the analyzer's
// shape: the one exact disk evaluation every caller shares.
func (a *Analyzer) mltdAt(data []float64, ix, iy int) float64 {
	t := data[iy*a.nx+ix]
	minN := math.Inf(1)
	for _, o := range a.offsets {
		jx, jy := ix+o.dx, iy+o.dy
		if jx < 0 || jx >= a.nx || jy < 0 || jy >= a.ny {
			continue
		}
		if v := data[jy*a.nx+jx]; v < minN {
			minN = v
		}
	}
	if math.IsInf(minN, 1) {
		return 0
	}
	return t - minN
}

// MaxMLTD returns the maximum MLTD over the whole die, and 0 when no
// cell's MLTD is positive: the Fig. 9 time-series quantity. It is the
// MLTD half of MaxMLTDSeverity's pass, pruned for MLTD alone, and
// allocates nothing.
func (a *Analyzer) MaxMLTD(f *geometry.Field) float64 {
	mltd, _ := a.pass(f, a.die(), true, false)
	return mltd
}
