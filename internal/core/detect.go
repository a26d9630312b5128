package core

import "hotgauge/internal/geometry"

// Candidates returns the hotspot candidate locations of the Fig. 6
// algorithm: cells that are local maxima of temperature in both the x and
// y dimensions (ties included, so plateau tops are not missed). Computing
// MLTD only at these locations is what makes detection cheap; the local
// maximum is "the true location of the hotspot".
func (a *Analyzer) Candidates(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	for iy := 0; iy < a.ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			t := f.At(ix, iy)
			if ix > 0 && f.At(ix-1, iy) > t {
				continue
			}
			if ix < a.nx-1 && f.At(ix+1, iy) > t {
				continue
			}
			if iy > 0 && f.At(ix, iy-1) > t {
				continue
			}
			if iy < a.ny-1 && f.At(ix, iy+1) > t {
				continue
			}
			x, y := f.CellCenter(ix, iy)
			out = append(out, Hotspot{IX: ix, IY: iy, X: x, Y: y, Temp: t})
		}
	}
	return out
}

// Detect runs the full Fig. 6 detection pipeline: find candidate local
// maxima, compute MLTD only there, and keep candidates whose temperature
// and MLTD both exceed the definition thresholds. A hot candidate gets
// its exact disk minimum only when T − LB, its block's lower bound from
// the analysis pass, exceeds MLTD_th: otherwise MLTD ≤ T − LB ≤ MLTD_th
// already rules it out.
func (a *Analyzer) Detect(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	a.gen++
	for _, c := range a.Candidates(f) {
		if c.Temp <= a.def.TempThreshold {
			continue
		}
		if !(c.Temp-a.lowerBound(f.Data, c.IX/a.n, c.IY/a.n) > a.def.MLTDThreshold) {
			continue
		}
		c.MLTD = a.mltdAt(f.Data, c.IX, c.IY)
		if c.MLTD > a.def.MLTDThreshold {
			out = append(out, c)
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
