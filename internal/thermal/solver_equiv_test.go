package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// Equivalence tests: the optimized kernels of solver_fast.go against the
// branchy reference kernels of solver_ref.go, across uneven grid shapes
// (1-wide rows and columns, single-layer stacks) and both solvers. The
// explicit kernel reassociates the flux sum, so it is compared within
// 1e-9 rather than bitwise; the parallel row-band path must match the
// serial one exactly.

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

	sSerial := Explicit{Workers: 1}
	sPar := Explicit{Workers: 4}
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
