package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/tech"
)

// Equivalence tests: the optimized kernels of solver_fast.go and
// solver.go against the branchy reference kernels of solver_ref.go,
// across uneven grid shapes (1-wide rows and columns, single-layer
// stacks). The explicit kernel reassociates the flux sum, so it is
// compared within 1e-9 rather than bitwise; the parallel row-band path
// must match the serial one exactly, and the wavefront SOR must match
// the lexicographic one exactly.

// kernelShapes exercises every boundary-peeling special case: degenerate
// single-cell, 1-wide columns (nx=1), 1-wide rows (ny=1), single-layer
// stacks (nl=1), minimal 3-D interiors, and a full-size grid.
var kernelShapes = []struct{ nx, ny, nl int }{
	{1, 1, 1},
	{1, 1, 4},
	{1, 6, 3},
	{7, 1, 3},
	{4, 5, 1},
	{3, 3, 3},
	{9, 8, 5},
	{46, 31, 9},
}

// syntheticGrid hand-builds a Grid with randomized positive coefficients.
// NewGrid refuses nx or ny below 3, but the kernels themselves must
// handle any shape ≥ 1 (the boundary peeling degenerates); building the
// struct directly lets the tests reach those shapes.
func syntheticGrid(nx, ny, nl int, rng *rand.Rand) *Grid {
	g := &Grid{NX: nx, NY: ny, NL: nl, Dx: 1e-4, Ambient: 45}
	g.gLat = make([]float64, nl)
	g.gUp = make([]float64, nl)
	g.capC = make([]float64, nl)
	for l := 0; l < nl; l++ {
		g.gLat[l] = 1e-3 * (0.5 + rng.Float64())
		g.gUp[l] = 2e-3 * (0.5 + rng.Float64())
		g.capC[l] = 1e-6 * (0.5 + rng.Float64())
	}
	g.gUp[nl-1] = 0
	g.gConv = 1e-3 * (0.5 + rng.Float64())
	// Stability bound, mirroring NewGrid.
	g.dtStable = math.Inf(1)
	for l := 0; l < nl; l++ {
		sum := 4 * g.gLat[l]
		if l > 0 {
			sum += g.gUp[l-1]
		}
		if l < nl-1 {
			sum += g.gUp[l]
		} else {
			sum += g.gConv
		}
		if dt := g.capC[l] / sum; dt < g.dtStable {
			g.dtStable = dt
		}
	}
	g.dtStable *= 0.5
	g.active = []int{0}
	return g
}

// singleLayerPower places one power plane at grid layer 0 — the legacy
// injection convention the kernels' [][]float64 shape generalizes.
func singleLayerPower(g *Grid, p []float64) [][]float64 {
	lp := make([][]float64, g.NL)
	lp[0] = p
	return lp
}

// multiLayerPower places independent random power planes on a spread of
// grid layers (bottom, middle, top) to exercise multi-active injection.
func multiLayerPower(g *Grid, rng *rand.Rand) [][]float64 {
	lp := make([][]float64, g.NL)
	lp[0] = randPower(g.NX, g.NY, rng)
	if g.NL > 2 {
		lp[g.NL/2] = randPower(g.NX, g.NY, rng)
	}
	if g.NL > 1 {
		lp[g.NL-1] = randPower(g.NX, g.NY, rng)
	}
	return lp
}

func randTemps(n int, rng *rand.Rand) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = 40 + 60*rng.Float64()
	}
	return t
}

func randPower(nx, ny int, rng *rand.Rand) []float64 {
	p := make([]float64, nx*ny)
	for i := range p {
		p[i] = 5e-3 * rng.Float64()
	}
	return p
}

// closeTo reports |a-b| within tol, scaled by magnitude.
func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func TestStepKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, sh := range kernelShapes {
		g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
		cur := randTemps(g.Cells(), rng)
		power := singleLayerPower(g, randPower(g.NX, g.NY, rng))
		zeros := make([]float64, g.NX)
		dt := g.dtStable

		fast := make([]float64, g.Cells())
		ref := make([]float64, g.Cells())
		stepRows(g, cur, fast, power, zeros, dt, 0, g.NL*g.NY)
		stepOnceRef(g, cur, ref, power, dt)

		for i := range ref {
			if !closeTo(fast[i], ref[i], 1e-9) {
				t.Fatalf("%dx%dx%d: cell %d: fast %.17g vs ref %.17g",
					sh.nx, sh.ny, sh.nl, i, fast[i], ref[i])
			}
		}
	}
}

// refExplicitStep replicates Explicit.Step's substepping with the
// reference kernel.
func refExplicitStep(g *Grid, s *State, power *Power, dt float64) {
	lp := g.layerPower(power, nil)
	n := int(math.Ceil(dt / g.dtStable))
	sub := dt / float64(n)
	cur := s.T
	next := make([]float64, len(cur))
	for it := 0; it < n; it++ {
		stepOnceRef(g, cur, next, lp, sub)
		cur, next = next, cur
	}
	if &cur[0] != &s.T[0] {
		copy(s.T, cur)
	}
}

func TestExplicitStepMatchesReferenceDriver(t *testing.T) {
	g := newTestGrid(t)
	power := uniformPower(g, 2.0)
	power.Frames[0].Data[g.NY/2*g.NX+g.NX/2] += 0.5 // off-center point source
	sFast := g.NewState(DefaultAmbient)
	sRef := sFast.Clone()

	var solver Explicit
	dt := 7.3 * g.dtStable // forces multi-substep with a non-integer ratio
	for step := 0; step < 5; step++ {
		if err := solver.Step(g, sFast, power, dt); err != nil {
			t.Fatal(err)
		}
		refExplicitStep(g, sRef, power, dt)
	}
	for i := range sRef.T {
		if !closeTo(sFast.T[i], sRef.T[i], 1e-9) {
			t.Fatalf("cell %d: fast %.17g vs ref %.17g", i, sFast.T[i], sRef.T[i])
		}
	}
}

func TestExplicitParallelMatchesSerial(t *testing.T) {
	g := newTestGrid(t)
	power := uniformPower(g, 2.0)
	power.Frames[0].Data[5] += 0.3
	serial := g.NewState(DefaultAmbient)
	par := serial.Clone()

	sSerial := Explicit{maxWorkers: 1}
	sPar := Explicit{maxWorkers: 4}
	dt := 5 * g.dtStable
	for step := 0; step < 4; step++ {
		if err := sSerial.Step(g, serial, power, dt); err != nil {
			t.Fatal(err)
		}
		if err := sPar.Step(g, par, power, dt); err != nil {
			t.Fatal(err)
		}
	}
	for i := range serial.T {
		if par.T[i] != serial.T[i] {
			t.Fatalf("cell %d: parallel %.17g != serial %.17g", i, par.T[i], serial.T[i])
		}
	}
}

func TestExplicitStepNoAllocsAfterWarmup(t *testing.T) {
	g := newTestGrid(t)
	power := uniformPower(g, 2.0)
	s := g.NewState(DefaultAmbient)
	var solver Explicit
	if err := solver.Step(g, s, power, 200e-6); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := solver.Step(g, s, power, 200e-6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Explicit.Step allocates %v objects per call after warmup", allocs)
	}
}

// steadyPresets are the stacks the steady-solve tests sweep: the
// single-die default, the three two-die presets and the liquid-cooled
// variant, each with its own sink conductance.
var steadyPresets = []struct {
	name  string
	stack func() []Layer
	sink  float64
}{
	{"default", DefaultStack, SinkConductance},
	{"core-on-memory", CoreOnMemoryStack, SinkConductance},
	{"memory-on-core", MemoryOnCoreStack, SinkConductance},
	{"gpu-sm", GPUSMStack, SinkConductance},
	{"liquid", LiquidCooledStack, LiquidSinkConductance},
}

// nodeGrid builds the default-resolution grid of a node's die.
func nodeGrid(t *testing.T, node tech.Node, stack []Layer, sink float64) *Grid {
	t.Helper()
	fp := floorplan.MustNew(floorplan.Config{Node: node})
	g, err := NewGrid(fp.Die, DefaultResolution, stack, sink, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomSteadyPower puts an independent random map on every active plane.
func randomSteadyPower(g *Grid, rng *rand.Rand) *Power {
	frames := make([]*geometry.Field, g.ActiveLayers())
	for i := range frames {
		frames[i] = geometry.NewField(g.NX, g.NY, g.Dx*1e3)
		copy(frames[i].Data, randPower(g.NX, g.NY, rng))
	}
	return NewPower(frames...)
}

// checkSteadyMatchesRef runs SolveSteady and solveSteadyRef from the same
// warm start and requires identical cells, sweep counts and errors.
func checkSteadyMatchesRef(t *testing.T, name string, g *Grid, power *Power, tol float64, maxIters int) {
	t.Helper()
	fast := g.NewState(DefaultAmbient)
	if err := WarmStart(g, fast, power); err != nil {
		t.Fatal(err)
	}
	ref := fast.Clone()
	nFast, errFast := SolveSteady(g, fast, power, tol, maxIters)
	nRef, errRef := solveSteadyRef(g, ref, power, tol, maxIters)
	if nFast != nRef {
		t.Fatalf("%s tol %g: %d sweeps, reference %d", name, tol, nFast, nRef)
	}
	if (errFast == nil) != (errRef == nil) || errFast != nil && errFast.Error() != errRef.Error() {
		t.Fatalf("%s tol %g: error %v, reference %v", name, tol, errFast, errRef)
	}
	for i := range ref.T {
		if fast.T[i] != ref.T[i] {
			t.Fatalf("%s tol %g: cell %d: %.17g, reference %.17g", name, tol, i, fast.T[i], ref.T[i])
		}
	}
}

// TestSolveSteadyMatchesReference pins the wavefront SOR to the
// lexicographic reference bit for bit, under random power on every
// active plane. The full-size node grids cover every preset at the
// warmup tolerance (1e-4), the 7 nm ones also at the FastSteady/Ψ
// tolerance (1e-5); the small shapes run every tolerance down to 1e-7.
// Tighter tolerances on the full-size grids only add sweeps — tens of
// seconds under the race detector (make faultcheck) — and reach no part
// of the schedule the other cases miss. The odd shapes hit every edge of
// the schedule: the 3×3 minimum, short last blocks (NY = 3, 5, 6, 7),
// grids too narrow for the interior path (NX = 3, 4), the narrowest one
// with it (NX = 5), a one-layer stack, and the 1-wide synthetic grids
// NewGrid refuses.
func TestSolveSteadyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, node := range []tech.Node{tech.Node14, tech.Node10, tech.Node7} {
		tols := []float64{1e-4}
		if node == tech.Node7 {
			tols = append(tols, 1e-5)
		}
		for _, p := range steadyPresets {
			g := nodeGrid(t, node, p.stack(), p.sink)
			power := randomSteadyPower(g, rng)
			for _, tol := range tols {
				checkSteadyMatchesRef(t, fmt.Sprintf("%v/%s", node, p.name), g, power, tol, 0)
			}
		}
	}

	oneLayer := []Layer{{Name: "silicon", Thickness: 380e-6, Conductivity: siliconK, VolumetricHeatCapacity: siliconCv, Sublayers: 1}}
	stacks := map[string][]Layer{"default": DefaultStack(), "core-on-memory": CoreOnMemoryStack(), "one-layer": oneLayer}
	shapes := []struct{ nx, ny int }{
		{3, 3}, {9, 3}, {9, 5}, {9, 6}, {9, 7}, {3, 9}, {4, 11}, {5, 10}, {12, 13},
	}
	for _, sh := range shapes {
		// A pitch-and-a-bit short of n cells, so ceil lands on n exactly.
		die := geometry.Rect{W: float64(sh.nx)*DefaultResolution - 0.01, H: float64(sh.ny)*DefaultResolution - 0.01}
		for name, stack := range stacks {
			g, err := NewGrid(die, DefaultResolution, stack, SinkConductance, DefaultAmbient)
			if err != nil {
				t.Fatal(err)
			}
			if g.NX != sh.nx || g.NY != sh.ny {
				t.Fatalf("die %v gave a %dx%d grid, want %dx%d", die, g.NX, g.NY, sh.nx, sh.ny)
			}
			power := randomSteadyPower(g, rng)
			for _, tol := range []float64{1e-4, 1e-5, 1e-7} {
				checkSteadyMatchesRef(t, fmt.Sprintf("%dx%d/%s", sh.nx, sh.ny, name), g, power, tol, 0)
			}
		}
	}
	for _, sh := range kernelShapes {
		g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
		power := randomSteadyPower(g, rng)
		for _, tol := range []float64{1e-4, 1e-5, 1e-7} {
			checkSteadyMatchesRef(t, fmt.Sprintf("synthetic %dx%dx%d", sh.nx, sh.ny, sh.nl), g, power, tol, 0)
		}
	}

	// A sweep budget too small to converge: the partial state and the
	// error must match too.
	g := nodeGrid(t, tech.Node10, CoreOnMemoryStack(), SinkConductance)
	checkSteadyMatchesRef(t, "10nm/core-on-memory capped", g, randomSteadyPower(g, rng), 1e-7, 3)
}

func TestSolveSteadyNoAllocs(t *testing.T) {
	g := nodeGrid(t, tech.Node7, CoreOnMemoryStack(), SinkConductance)
	power := randomSteadyPower(g, rand.New(rand.NewSource(3)))
	s := g.NewState(DefaultAmbient)
	allocs := testing.AllocsPerRun(5, func() {
		if err := WarmStart(g, s, power); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WarmStart allocates %v objects per call", allocs)
	}
	start := s.Clone()
	allocs = testing.AllocsPerRun(5, func() {
		copy(s.T, start.T)
		if _, err := SolveSteady(g, s, power, 1e-4, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveSteady allocates %v objects per call", allocs)
	}
}
