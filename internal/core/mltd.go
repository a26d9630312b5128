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
	t := f.At(ix, iy)
	minN := math.Inf(1)
	for _, o := range a.offsets {
		jx, jy := ix+o.dx, iy+o.dy
		if jx < 0 || jx >= a.nx || jy < 0 || jy >= a.ny {
			continue
		}
		if v := f.At(jx, jy); v < minN {
			minN = v
		}
	}
	if math.IsInf(minN, 1) {
		return 0
	}
	return t - minN
}

// MLTDField computes the MLTD at every cell via the sliding-window scan
// (mltd_fast.go); the result is bit-equal to evaluating MLTDAt per cell.
func (a *Analyzer) MLTDField(f *geometry.Field) *geometry.Field {
	m := a.mltdScan(f)
	out := geometry.NewField(f.NX, f.NY, f.Dx)
	copy(out.Data, m)
	return out
}

// MaxMLTD returns the maximum MLTD over the whole die — the Fig. 9
// time-series quantity. Allocation-free after the analyzer's first scan.
// MaxMLTDSeverity returns the same value alongside the peak severity
// from the same scan.
func (a *Analyzer) MaxMLTD(f *geometry.Field) float64 {
	best := 0.0
	for _, v := range a.mltdScan(f) {
		if v > best {
			best = v
		}
	}
	return best
}
