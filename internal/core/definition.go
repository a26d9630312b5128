package core

import (
	"fmt"

	"hotgauge/internal/geometry"
)

// Definition parameterizes Definition 1 of the paper: a die location is a
// hotspot iff its temperature exceeds TempThreshold AND the maximum
// localized temperature difference within Radius exceeds MLTDThreshold.
type Definition struct {
	TempThreshold float64 // T_th [°C]
	MLTDThreshold float64 // MLTD_th [°C]
	Radius        float64 // neighbourhood radius [mm]
}

// DefaultDefinition returns the case-study parameters: 80 °C, 25 °C, and
// a 1 mm radius (≈ the distance signals travel in one clock at 5 GHz,
// kept constant across nodes because global wires do not scale).
func DefaultDefinition() Definition {
	return Definition{TempThreshold: 80, MLTDThreshold: 25, Radius: 1.0}
}

// Validate checks the definition parameters.
func (d Definition) Validate() error {
	if d.Radius <= 0 {
		return fmt.Errorf("core: non-positive radius %v", d.Radius)
	}
	if d.MLTDThreshold <= 0 {
		return fmt.Errorf("core: non-positive MLTD threshold %v", d.MLTDThreshold)
	}
	return nil
}

// Hotspot is one detected hotspot location.
type Hotspot struct {
	IX, IY int     // grid cell
	X, Y   float64 // physical location [mm]
	Temp   float64 // junction temperature [°C]
	MLTD   float64 // max localized temperature difference [°C]
}

// Analyzer performs MLTD and hotspot analysis on temperature fields of a
// fixed geometry. It precomputes the circular neighbourhood stencil and
// the block tiling of the die once; construct one per (grid shape,
// definition) pair and reuse it across frames.
//
// An Analyzer holds the per-block bounds of its current analysis pass
// (pass.go), so a single Analyzer must not be used from concurrent
// goroutines; give each worker its own (sim.Run already does).
type Analyzer struct {
	def     Definition
	nx, ny  int
	offsets []stencilOffset

	// Blocks of side n = int(Radius/Dx) cells tile the die, bw per row
	// and bh per column.
	n, bw, bh int
	blocks    []block
	gen       uint64 // the current pass, stamping the blocks it summarized
	evals     int    // exact disk evaluations of the last pass
}

type stencilOffset struct{ dx, dy int }

// NewAnalyzer builds an analyzer for fields shaped like proto.
func NewAnalyzer(proto *geometry.Field, def Definition) (*Analyzer, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if proto == nil || proto.NX <= 0 || proto.NY <= 0 {
		return nil, fmt.Errorf("core: invalid prototype field")
	}
	rCells := def.Radius / proto.Dx
	n := int(rCells)
	a := &Analyzer{def: def, nx: proto.NX, ny: proto.NY}
	for dy := -n; dy <= n; dy++ {
		for dx := -n; dx <= n; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if float64(dx*dx+dy*dy) <= rCells*rCells {
				a.offsets = append(a.offsets, stencilOffset{dx, dy})
			}
		}
	}
	if len(a.offsets) == 0 {
		return nil, fmt.Errorf("core: radius %v mm smaller than one %v mm cell", def.Radius, proto.Dx)
	}
	a.n, a.bw, a.bh = n, (a.nx+n-1)/n, (a.ny+n-1)/n
	a.blocks = make([]block, a.bw*a.bh)
	return a, nil
}

// Definition returns the analyzer's hotspot definition.
func (a *Analyzer) Definition() Definition { return a.def }

// checkShape validates that f matches the analyzer's geometry.
func (a *Analyzer) checkShape(f *geometry.Field) {
	if f.NX != a.nx || f.NY != a.ny {
		panic(fmt.Sprintf("core: field %dx%d does not match analyzer %dx%d", f.NX, f.NY, a.nx, a.ny))
	}
}
