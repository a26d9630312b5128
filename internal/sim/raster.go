package sim

import (
	"math"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/power"
	"hotgauge/internal/thermal"
)

// subUnitConcentration shapes how a unit's power is distributed over its
// own silicon: real functional units are internally non-uniform (the
// paper's hotspots are sub-unit phenomena), so power is concentrated
// toward the unit's center with a raised-cosine profile. The constant is
// the weight multiplier at the center before normalization; totals per
// unit are preserved exactly, so power and C_dyn calibration are
// unaffected. Set by matching Fig. 1's intra-unit gradients.
const subUnitConcentration = 2.5

// rasterCache precomputes, once per run, how a die's units map onto the
// thermal grid: which cells each unit covers and with what area fraction.
// This turns the per-timestep power-map build and per-unit mean-temperature
// query into cheap table walks. One cache serves one injection plane; a
// stacked run builds a second cache for its memory die with that plane's
// state offset.
type rasterCache struct {
	units []unitCells
	// base is the plane's flat offset into the full thermal state
	// (grid layer × NX×NY); cell indices stay plane-local so the same
	// cache injects into per-plane power frames.
	base int
	// means is unitMeans' result, refilled in place every step: its key
	// set, the units with covered area, is fixed for the run.
	means map[string]float64
}

type unitCells struct {
	name  string
	cells []weightedCell
	area  float64 // total covered area weight
}

type weightedCell struct {
	idx  int     // flat cell index within the plane
	frac float64 // fraction of the unit's area in this cell
}

func newRasterCache(units []floorplan.Unit, nx, ny int, resolutionMM float64, base int) *rasterCache {
	rc := &rasterCache{base: base, units: make([]unitCells, 0, len(units))}
	bounds := geometry.Rect{W: float64(nx) * resolutionMM, H: float64(ny) * resolutionMM}
	// Each unit's cells gather in one reused buffer and are then copied
	// out at exact length, so the cache keeps no append slack.
	var buf []weightedCell
	for _, u := range units {
		uc := unitCells{name: u.Name}
		clipped := u.Rect.Intersection(bounds)
		if clipped.Empty() {
			rc.units = append(rc.units, uc)
			continue
		}
		ix0 := int(clipped.X / resolutionMM)
		iy0 := int(clipped.Y / resolutionMM)
		ix1 := min(int(clipped.MaxX()/resolutionMM), nx-1)
		iy1 := min(int(clipped.MaxY()/resolutionMM), ny-1)
		total := u.Rect.Area()
		ucx, ucy := u.Rect.Center()
		weightSum := 0.0
		buf = buf[:0]
		for iy := max(iy0, 0); iy <= iy1; iy++ {
			for ix := max(ix0, 0); ix <= ix1; ix++ {
				cell := geometry.Rect{X: float64(ix) * resolutionMM, Y: float64(iy) * resolutionMM,
					W: resolutionMM, H: resolutionMM}
				ov := cell.Intersection(u.Rect).Area()
				if ov <= 0 {
					continue
				}
				// Center-peaked sub-unit profile: normalized distance of
				// the cell center from the unit center, 0..1 at the corner.
				cx, cy := cell.Center()
				rn := math.Hypot((cx-ucx)/(u.Rect.W/2+1e-12), (cy-ucy)/(u.Rect.H/2+1e-12)) / math.Sqrt2
				if rn > 1 {
					rn = 1
				}
				bump := math.Cos(rn * math.Pi / 2)
				w := ov / total * (1 + subUnitConcentration*bump*bump)
				buf = append(buf, weightedCell{idx: iy*nx + ix, frac: w})
				uc.area += ov / total
				weightSum += w
			}
		}
		if len(buf) > 0 {
			uc.cells = make([]weightedCell, len(buf))
			copy(uc.cells, buf)
		}
		// Renormalize so the unit's total power is preserved exactly.
		if weightSum > 0 {
			scale := uc.area / weightSum
			for i := range uc.cells {
				uc.cells[i].frac *= scale
			}
		}
		rc.units = append(rc.units, uc)
	}
	return rc
}

// inject distributes each unit's power over its cells into the power map.
func (rc *rasterCache) inject(powerField *geometry.Field, res power.Result) {
	for _, uc := range rc.units {
		p := res.Dynamic[uc.name] + res.Leakage[uc.name]
		if p == 0 {
			continue
		}
		for _, wc := range uc.cells {
			powerField.Data[wc.idx] += p * wc.frac
		}
	}
}

// unitMeans returns the area-weighted mean junction temperature of every
// unit, for the leakage feedback path. The map is the cache's own and is
// overwritten by the next call.
func (rc *rasterCache) unitMeans(state *thermal.State) map[string]float64 {
	if rc.means == nil {
		rc.means = make(map[string]float64, len(rc.units))
	}
	out := rc.means
	for _, uc := range rc.units {
		if uc.area == 0 {
			continue
		}
		sum := 0.0
		for _, wc := range uc.cells {
			sum += state.T[rc.base+wc.idx] * wc.frac
		}
		out[uc.name] = sum / uc.area
	}
	return out
}
