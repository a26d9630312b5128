package core

import "hotgauge/internal/geometry"

// Candidates returns the hotspot candidate locations of the Fig. 6
// algorithm: cells that are local maxima of temperature in both the x and
// y dimensions (ties included, so plateau tops are not missed). Computing
// MLTD only at these locations is what makes detection cheap; the local
// maximum is "the true location of the hotspot". Detect scans the same
// cells in the same order without building this list.
func (a *Analyzer) Candidates(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	for iy := 0; iy < a.ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			if t := f.At(ix, iy); a.localMax(f, ix, iy, t) {
				x, y := f.CellCenter(ix, iy)
				out = append(out, Hotspot{IX: ix, IY: iy, X: x, Y: y, Temp: t})
			}
		}
	}
	return out
}

// localMax reports whether no 4-neighbour of cell (ix, iy), at
// temperature t, is hotter.
func (a *Analyzer) localMax(f *geometry.Field, ix, iy int, t float64) bool {
	return !(ix > 0 && f.At(ix-1, iy) > t ||
		ix < a.nx-1 && f.At(ix+1, iy) > t ||
		iy > 0 && f.At(ix, iy-1) > t ||
		iy < a.ny-1 && f.At(ix, iy+1) > t)
}

// Detect runs the full Fig. 6 detection pipeline: find candidate local
// maxima, compute MLTD only there, and keep candidates whose temperature
// and MLTD both exceed the definition thresholds. It scans the frame in
// place, testing T > T_th before the neighbours, so a frame without a
// hotspot allocates nothing. A hot candidate gets its exact disk minimum
// only when T − LB, its block's lower bound from the analysis pass,
// exceeds MLTD_th: otherwise MLTD ≤ T − LB ≤ MLTD_th already rules it
// out.
func (a *Analyzer) Detect(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	a.gen++
	for iy := 0; iy < a.ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			t := f.At(ix, iy)
			if t <= a.def.TempThreshold || !a.localMax(f, ix, iy, t) {
				continue
			}
			if !(t-a.lowerBound(f.Data, ix/a.n, iy/a.n) > a.def.MLTDThreshold) {
				continue
			}
			if mltd := a.mltdAt(f.Data, ix, iy); mltd > a.def.MLTDThreshold {
				x, y := f.CellCenter(ix, iy)
				out = append(out, Hotspot{IX: ix, IY: iy, X: x, Y: y, Temp: t, MLTD: mltd})
			}
		}
	}
	return out
}

// DetectNaive is the robust-but-expensive reference detector the paper
// describes and rejects: it evaluates Definition 1 at every cell. It
// exists to validate Detect (every Detect hit must be a DetectNaive hit,
// and both must agree on hotspot presence) and for the detection ablation
// benchmark.
func (a *Analyzer) DetectNaive(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	for iy := 0; iy < a.ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			t := f.At(ix, iy)
			if t <= a.def.TempThreshold {
				continue
			}
			mltd := a.MLTDAt(f, ix, iy)
			if mltd > a.def.MLTDThreshold {
				x, y := f.CellCenter(ix, iy)
				out = append(out, Hotspot{IX: ix, IY: iy, X: x, Y: y, Temp: t, MLTD: mltd})
			}
		}
	}
	return out
}
