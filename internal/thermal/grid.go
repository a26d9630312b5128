package thermal

import (
	"fmt"
	"math"

	"hotgauge/internal/geometry"
)

// Grid is the discretized RC network of one die + cooling stack. It is
// immutable after construction; State carries the evolving temperatures.
type Grid struct {
	NX, NY int     // in-plane cells
	NL     int     // grid layers (after sublayer expansion)
	Dx     float64 // in-plane pitch [m]

	layerName []string
	thick     []float64 // per grid layer [m]

	gLat  []float64 // lateral pair conductance per layer [W/K]
	gUp   []float64 // vertical per-cell conductance layer l ↔ l+1 [W/K]
	capC  []float64 // per-cell heat capacity per layer [J/K]
	gConv float64   // per-cell convective conductance on the top layer [W/K]

	// active lists the grid layers that receive power injection, in
	// ascending order: the first sublayer of every stack Layer marked
	// Active, or {0} for legacy stacks with no Active marker. Power
	// frame i of a Power value injects into grid layer active[i].
	active []int

	Ambient float64 // ambient temperature [°C]

	dtStable float64 // largest stable explicit substep [s]
}

// NewGrid builds the network for a die of the given outline (mm), grid
// resolution (mm), stack and total sink conductance. The ambient
// temperature is the convective boundary condition.
func NewGrid(die geometry.Rect, resolutionMM float64, stack []Layer, sinkConductance, ambient float64) (*Grid, error) {
	if die.Empty() {
		return nil, fmt.Errorf("thermal: empty die outline")
	}
	if resolutionMM <= 0 {
		return nil, fmt.Errorf("thermal: non-positive resolution")
	}
	if len(stack) == 0 {
		return nil, fmt.Errorf("thermal: empty stack")
	}
	nx := int(math.Ceil(die.W / resolutionMM))
	ny := int(math.Ceil(die.H / resolutionMM))
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("thermal: grid %dx%d too coarse for die %v", nx, ny, die)
	}
	dx := resolutionMM * 1e-3

	g := &Grid{NX: nx, NY: ny, Dx: dx, Ambient: ambient}
	for _, l := range stack {
		// Reject unphysical layers with a per-field diagnostic instead of
		// letting effK/effCv silently coerce bad scales to 1 and run the
		// wrong physics.
		switch {
		case l.Thickness <= 0:
			return nil, fmt.Errorf("thermal: layer %q has non-positive Thickness %v", l.Name, l.Thickness)
		case l.Conductivity <= 0:
			return nil, fmt.Errorf("thermal: layer %q has non-positive Conductivity %v", l.Name, l.Conductivity)
		case l.VolumetricHeatCapacity <= 0:
			return nil, fmt.Errorf("thermal: layer %q has non-positive VolumetricHeatCapacity %v", l.Name, l.VolumetricHeatCapacity)
		case l.KScale < 0:
			return nil, fmt.Errorf("thermal: layer %q has negative KScale %v (use 0 or omit for no scaling)", l.Name, l.KScale)
		case l.CvScale < 0:
			return nil, fmt.Errorf("thermal: layer %q has negative CvScale %v (use 0 or omit for no scaling)", l.Name, l.CvScale)
		}
		if l.Active {
			g.active = append(g.active, len(g.thick))
		}
		sub := l.Sublayers
		if sub < 1 {
			sub = 1
		}
		t := l.Thickness / float64(sub)
		for s := 0; s < sub; s++ {
			g.layerName = append(g.layerName, l.Name)
			g.thick = append(g.thick, t)
			g.gLat = append(g.gLat, l.effK()*t)
			g.capC = append(g.capC, l.effCv()*dx*dx*t)
			// Vertical resistance half-contribution; combined below.
			g.gUp = append(g.gUp, l.effK()) // temporarily store k_eff
		}
	}
	g.NL = len(g.thick)
	if len(g.active) == 0 {
		// Legacy single-die convention: power injects into grid layer 0.
		g.active = []int{0}
	}
	// Combine vertical conductances: series of the two half-slabs.
	for l := 0; l < g.NL-1; l++ {
		r := g.thick[l]/(2*g.gUp[l]) + g.thick[l+1]/(2*g.gUp[l+1])
		g.gUp[l] = dx * dx / r
	}
	g.gUp[g.NL-1] = 0 // replaced by convection
	if sinkConductance <= 0 {
		return nil, fmt.Errorf("thermal: non-positive sink conductance")
	}
	g.gConv = sinkConductance / float64(nx*ny)

	// Explicit stability: dt < C / ΣG per cell; the binding cell is the
	// worst layer (interior cell with 4 lateral + 2 vertical neighbours).
	g.dtStable = math.Inf(1)
	for l := 0; l < g.NL; l++ {
		sum := 4 * g.gLat[l]
		if l > 0 {
			sum += g.gUp[l-1]
		}
		if l < g.NL-1 {
			sum += g.gUp[l]
		} else {
			sum += g.gConv
		}
		if dt := g.capC[l] / sum; dt < g.dtStable {
			g.dtStable = dt
		}
	}
	g.dtStable *= 0.5 // safety margin
	return g, nil
}

// Cells returns the total cell count.
func (g *Grid) Cells() int { return g.NX * g.NY * g.NL }

// StableStep returns the explicit solver's stability-bounded substep [s].
func (g *Grid) StableStep() float64 { return g.dtStable }

// LayerName returns the material name of grid layer l.
func (g *Grid) LayerName(l int) string { return g.layerName[l] }

// idx maps (layer, iy, ix) to the flat cell index.
func (g *Grid) idx(l, iy, ix int) int { return (l*g.NY+iy)*g.NX + ix }

// State is the temperature field of a grid [°C].
type State struct {
	T []float64
}

// NewState returns a state with every cell at the given temperature.
func (g *Grid) NewState(temp float64) *State {
	s := &State{T: make([]float64, g.Cells())}
	for i := range s.T {
		s.T[i] = temp
	}
	return s
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	t := make([]float64, len(s.T))
	copy(t, s.T)
	return &State{T: t}
}

// ActiveLayers returns how many power-injecting planes the grid has
// (1 for legacy single-die stacks).
func (g *Grid) ActiveLayers() int { return len(g.active) }

// ActiveLayerIndex returns the grid-layer index of active plane i.
func (g *Grid) ActiveLayerIndex(i int) int { return g.active[i] }

// ActiveLayerName returns the material name of active plane i — the die
// label stacked scenarios report per-die metrics under.
func (g *Grid) ActiveLayerName(i int) string { return g.layerName[g.active[i]] }

// ActiveField extracts the first active plane's (junction) temperatures
// as a 2-D field with pitch in millimeters — the surface the hotspot
// detector and all of the paper's thermal maps operate on for
// single-die stacks.
func (g *Grid) ActiveField(s *State) *geometry.Field {
	return g.ActiveFieldAt(s, 0)
}

// ActiveFieldAt extracts active plane i's temperatures as a 2-D field.
func (g *Grid) ActiveFieldAt(s *State, i int) *geometry.Field {
	f := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	base := g.active[i] * g.NX * g.NY
	copy(f.Data, s.T[base:base+g.NX*g.NY])
	return f
}

// ActiveFieldAtInto copies active plane i's temperatures into an
// existing field, letting step loops reuse one buffer instead of
// allocating a frame per timestep.
func (g *Grid) ActiveFieldAtInto(s *State, i int, f *geometry.Field) error {
	if f.NX != g.NX || f.NY != g.NY {
		return fmt.Errorf("thermal: field %dx%d does not match grid %dx%d", f.NX, f.NY, g.NX, g.NY)
	}
	base := g.active[i] * g.NX * g.NY
	copy(f.Data, s.T[base:base+g.NX*g.NY])
	return nil
}

// SetActiveField overwrites the first active plane's temperatures from a
// field (used to impose non-uniform initial conditions).
func (g *Grid) SetActiveField(s *State, f *geometry.Field) error {
	if f.NX != g.NX || f.NY != g.NY {
		return fmt.Errorf("thermal: field %dx%d does not match grid %dx%d", f.NX, f.NY, g.NX, g.NY)
	}
	base := g.active[0] * g.NX * g.NY
	copy(s.T[base:base+g.NX*g.NY], f.Data)
	return nil
}

// MaxTempAt returns the hottest cell of active plane i.
func (g *Grid) MaxTempAt(s *State, i int) float64 {
	base := g.active[i] * g.NX * g.NY
	m := math.Inf(-1)
	for _, t := range s.T[base : base+g.NX*g.NY] {
		if t > m {
			m = t
		}
	}
	return m
}

// MeanTempAt returns the mean temperature of active plane i.
func (g *Grid) MeanTempAt(s *State, i int) float64 {
	base := g.active[i] * g.NX * g.NY
	sum := 0.0
	plane := g.NX * g.NY
	for _, t := range s.T[base : base+plane] {
		sum += t
	}
	return sum / float64(plane)
}

// MaxTemp returns the hottest cell across every active plane.
func (g *Grid) MaxTemp(s *State) float64 {
	m := g.MaxTempAt(s, 0)
	for i := 1; i < len(g.active); i++ {
		if v := g.MaxTempAt(s, i); v > m {
			m = v
		}
	}
	return m
}

// MeanTemp returns the mean active-plane temperature: the average of
// the per-plane means (each plane has equal cell count). A single-die
// grid's result is bit-identical to MeanTempAt(s, 0).
func (g *Grid) MeanTemp(s *State) float64 {
	sum := 0.0
	for i := range g.active {
		sum += g.MeanTempAt(s, i)
	}
	return sum / float64(len(g.active))
}

// layerEnergy adds grid layer l's stored energy relative to ref into the
// running accumulator acc and returns it. EnergyAbove chains one call
// per layer through the same accumulator, so the summation order (and
// therefore the floating-point result) is identical to the historical
// single-loop formulation.
func (g *Grid) layerEnergy(s *State, l int, ref, acc float64) float64 {
	c := g.capC[l]
	base := l * g.NY * g.NX
	for i := 0; i < g.NX*g.NY; i++ {
		acc += c * (s.T[base+i] - ref)
	}
	return acc
}

// EnergyAbove returns the total thermal energy stored in the stack
// relative to a reference temperature [J]. Used by conservation tests.
func (g *Grid) EnergyAbove(s *State, ref float64) float64 {
	e := 0.0
	for l := 0; l < g.NL; l++ {
		e = g.layerEnergy(s, l, ref, e)
	}
	return e
}

// EnergyAboveAt returns the energy stored in grid layer l alone [J].
func (g *Grid) EnergyAboveAt(s *State, l int, ref float64) float64 {
	return g.layerEnergy(s, l, ref, 0)
}

// checkPower validates a power input against the grid: one frame per
// active plane, each matching the in-plane grid.
func (g *Grid) checkPower(p *Power) error {
	if p == nil {
		return fmt.Errorf("thermal: nil power")
	}
	if len(p.Frames) != len(g.active) {
		return fmt.Errorf("thermal: %d power frames for %d active layers", len(p.Frames), len(g.active))
	}
	for i, f := range p.Frames {
		if f == nil {
			return fmt.Errorf("thermal: nil power frame %d", i)
		}
		if f.NX != g.NX || f.NY != g.NY {
			return fmt.Errorf("thermal: power frame %d is %dx%d, grid is %dx%d",
				i, f.NX, f.NY, g.NX, g.NY)
		}
	}
	return nil
}

// layerPower expands a validated Power into one data slice per grid
// layer (nil for passive layers), reusing dst when it has capacity so
// solvers stay allocation-free after warmup.
func (g *Grid) layerPower(p *Power, dst [][]float64) [][]float64 {
	if cap(dst) < g.NL {
		dst = make([][]float64, g.NL)
	}
	dst = dst[:g.NL]
	for i := range dst {
		dst[i] = nil
	}
	for i, l := range g.active {
		dst[l] = p.Frames[i].Data
	}
	return dst
}
