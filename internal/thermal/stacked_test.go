package thermal

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hotgauge/internal/geometry"
)

// Multi-die stack tests: kernel equivalence with several injection
// planes, the Active-marker bit-identity guarantee, the satellite
// bugfixes (stack validation, aggregate routing) and end-to-end physics
// of the stacked presets.

func TestStepKernelMatchesReferenceMultiActive(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for _, sh := range kernelShapes {
		g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
		cur := randTemps(g.Cells(), rng)
		power := multiLayerPower(g, rng)
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

// TestSingleActiveMarkerBitIdentical pins the oracle-equivalence
// guarantee of the refactor: marking layer 0 Active (the explicit form
// of the legacy implicit convention) must produce bit-identical
// temperatures through every solver and the steady-state pipeline.
func TestSingleActiveMarkerBitIdentical(t *testing.T) {
	marked := DefaultStack()
	marked[0].Active = true
	gLegacy, err := NewGrid(testDie, DefaultResolution, DefaultStack(), SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	gMarked, err := NewGrid(testDie, DefaultResolution, marked, SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	if gMarked.ActiveLayers() != 1 || gMarked.ActiveLayerIndex(0) != 0 {
		t.Fatalf("marked stack: active layers %d at %d", gMarked.ActiveLayers(), gMarked.ActiveLayerIndex(0))
	}

	frame := uniformField(gLegacy, 9.0)
	frame.Data[3*gLegacy.NX+4] += 0.7
	power := NewPower(frame)

	solvers := []func() Solver{
		func() Solver { return &Explicit{} },
		func() Solver { return &ADI{} },
	}
	for _, mk := range solvers {
		sa, sb := gLegacy.NewState(DefaultAmbient), gMarked.NewState(DefaultAmbient)
		va, vb := mk(), mk()
		for k := 0; k < 5; k++ {
			if err := va.Step(gLegacy, sa, power, 200e-6); err != nil {
				t.Fatal(err)
			}
			if err := vb.Step(gMarked, sb, power, 200e-6); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sa.T {
			if sa.T[i] != sb.T[i] {
				t.Fatalf("%s: cell %d differs: %.17g vs %.17g", va.Name(), i, sa.T[i], sb.T[i])
			}
		}
	}

	sa, sb := gLegacy.NewState(DefaultAmbient), gMarked.NewState(DefaultAmbient)
	if err := WarmStart(gLegacy, sa, power); err != nil {
		t.Fatal(err)
	}
	if err := WarmStart(gMarked, sb, power); err != nil {
		t.Fatal(err)
	}
	for i := range sa.T {
		if sa.T[i] != sb.T[i] {
			t.Fatalf("WarmStart: cell %d differs", i)
		}
	}
	if _, err := SolveSteady(gLegacy, sa, power, 1e-6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSteady(gMarked, sb, power, 1e-6, 0); err != nil {
		t.Fatal(err)
	}
	for i := range sa.T {
		if sa.T[i] != sb.T[i] {
			t.Fatalf("SolveSteady: cell %d differs", i)
		}
	}
}

// TestNewGridRejectsBadStacks is the satellite-1 table test: negative
// scale factors and non-positive material constants must be rejected
// with a diagnostic naming the layer and the field, not silently
// coerced.
func TestNewGridRejectsBadStacks(t *testing.T) {
	mutate := func(f func(*Layer)) []Layer {
		s := DefaultStack()
		f(&s[2])
		return s
	}
	cases := []struct {
		name  string
		stack []Layer
		want  string // substring the error must carry
	}{
		{"negative KScale", mutate(func(l *Layer) { l.KScale = -1 }), "negative KScale"},
		{"negative CvScale", mutate(func(l *Layer) { l.CvScale = -0.5 }), "negative CvScale"},
		{"zero thickness", mutate(func(l *Layer) { l.Thickness = 0 }), "Thickness"},
		{"negative thickness", mutate(func(l *Layer) { l.Thickness = -1e-6 }), "Thickness"},
		{"zero conductivity", mutate(func(l *Layer) { l.Conductivity = 0 }), "Conductivity"},
		{"negative heat capacity", mutate(func(l *Layer) { l.VolumetricHeatCapacity = -1 }), "VolumetricHeatCapacity"},
	}
	for _, c := range cases {
		_, err := NewGrid(testDie, DefaultResolution, c.stack, SinkConductance, DefaultAmbient)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the field (%q)", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), "solder-tim") {
			t.Errorf("%s: error %q does not name the layer", c.name, err)
		}
	}
	// Zero scales remain legal shorthand for "no scaling": DefaultStack
	// itself relies on it.
	if _, err := NewGrid(testDie, DefaultResolution, DefaultStack(), SinkConductance, DefaultAmbient); err != nil {
		t.Fatalf("default stack rejected: %v", err)
	}
}

// TestAggregatesMatchLegacyOnDefaultStack is the satellite-2 pin:
// MaxTemp/MeanTemp/EnergyAbove now route through the per-plane
// accessors, and on a legacy single-active stack they must equal the
// historical layer-0 formulations exactly.
func TestAggregatesMatchLegacyOnDefaultStack(t *testing.T) {
	g := newTestGrid(t)
	s := g.NewState(DefaultAmbient)
	var e Explicit
	frame := uniformField(g, 7.0)
	frame.Data[2*g.NX+2] += 0.9
	for k := 0; k < 7; k++ {
		if err := e.Step(g, s, NewPower(frame), 200e-6); err != nil {
			t.Fatal(err)
		}
	}
	plane := g.NX * g.NY

	legacyMax := math.Inf(-1)
	for _, v := range s.T[:plane] {
		if v > legacyMax {
			legacyMax = v
		}
	}
	if got := g.MaxTemp(s); got != legacyMax {
		t.Fatalf("MaxTemp %.17g != legacy %.17g", got, legacyMax)
	}

	sum := 0.0
	for _, v := range s.T[:plane] {
		sum += v
	}
	legacyMean := sum / float64(plane)
	if got := g.MeanTemp(s); got != legacyMean {
		t.Fatalf("MeanTemp %.17g != legacy %.17g", got, legacyMean)
	}

	legacyE := 0.0
	for l := 0; l < g.NL; l++ {
		c := g.capC[l]
		base := l * g.NY * g.NX
		for i := 0; i < plane; i++ {
			legacyE += c * (s.T[base+i] - DefaultAmbient)
		}
	}
	if got := g.EnergyAbove(s, DefaultAmbient); got != legacyE {
		t.Fatalf("EnergyAbove %.17g != legacy %.17g", got, legacyE)
	}
	// Per-layer slices recompose to the whole.
	parts := 0.0
	for l := 0; l < g.NL; l++ {
		parts += g.EnergyAboveAt(s, l, DefaultAmbient)
	}
	if math.Abs(parts-legacyE) > 1e-9*math.Abs(legacyE) {
		t.Fatalf("sum of EnergyAboveAt %.17g far from EnergyAbove %.17g", parts, legacyE)
	}
}

// stackedGrid builds a grid for one of the stacked presets over the
// small test die.
func stackedGrid(t *testing.T, stack []Layer) *Grid {
	t.Helper()
	g, err := NewGrid(testDie, DefaultResolution, stack, SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStackedPresetsHaveTwoActivePlanes(t *testing.T) {
	presets := map[string][]Layer{
		"core-on-memory": CoreOnMemoryStack(),
		"memory-on-core": MemoryOnCoreStack(),
		"gpu-sm":         GPUSMStack(),
	}
	for name, stack := range presets {
		g := stackedGrid(t, stack)
		if g.ActiveLayers() != 2 {
			t.Fatalf("%s: %d active planes, want 2", name, g.ActiveLayers())
		}
		if g.ActiveLayerIndex(0) >= g.ActiveLayerIndex(1) {
			t.Fatalf("%s: active planes not ascending", name)
		}
		if g.ActiveLayerName(0) == g.ActiveLayerName(1) {
			t.Fatalf("%s: die labels collide: %q", name, g.ActiveLayerName(0))
		}
	}
}

// TestStackedSteadyBalanceAndCoupling checks the stacked physics end to
// end: steady-state outflow equals the sum of both dies' power, and
// heating only the bottom die still warms the upper die (the TSV/TIM
// bond conducts), with the buried die hotter than the one near the sink.
func TestStackedSteadyBalanceAndCoupling(t *testing.T) {
	g := stackedGrid(t, MemoryOnCoreStack()) // core buried at plane 0
	core := uniformField(g, 10)
	mem := uniformField(g, 2)
	p := NewPower(core, mem)

	s := g.NewState(DefaultAmbient)
	if err := WarmStart(g, s, p); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSteady(g, s, p, 1e-7, 0); err != nil {
		t.Fatal(err)
	}
	out := 0.0
	top := (g.NL - 1) * g.NX * g.NY
	for i := 0; i < g.NX*g.NY; i++ {
		out += g.gConv * (s.T[top+i] - g.Ambient)
	}
	if math.Abs(out-12)/12 > 0.01 {
		t.Fatalf("steady outflow %.3f W, want 12 W", out)
	}
	// The buried core die must run hotter than the memory die above it.
	if g.MeanTempAt(s, 0) <= g.MeanTempAt(s, 1) {
		t.Fatalf("buried die not hotter: core %.2f vs mem %.2f", g.MeanTempAt(s, 0), g.MeanTempAt(s, 1))
	}

	// Transient coupling: power only the buried die; the upper die must
	// warm up through the bond within a few ms.
	s2 := g.NewState(DefaultAmbient)
	zero := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	var e Explicit
	for k := 0; k < 25; k++ {
		if err := e.Step(g, s2, NewPower(core, zero), 200e-6); err != nil {
			t.Fatal(err)
		}
	}
	if rise := g.MeanTempAt(s2, 1) - DefaultAmbient; rise <= 0.01 {
		t.Fatalf("upper die did not warm through the bond: rise %.4f °C", rise)
	}
	if g.MaxTempAt(s2, 0) <= g.MaxTempAt(s2, 1) {
		t.Fatal("powered buried die should be the hotter plane")
	}
}

// TestStackedSolversAgree cross-checks both transient solvers on a
// stacked grid with asymmetric per-die power.
func TestStackedSolversAgree(t *testing.T) {
	g := stackedGrid(t, GPUSMStack())
	fb := uniformField(g, 3)
	sm := uniformField(g, 8)
	sm.Data[4*g.NX+5] += 0.5
	p := NewPower(fb, sm)

	se := g.NewState(DefaultAmbient)
	sa := g.NewState(DefaultAmbient)
	var ex Explicit
	ad := ADI{ErrTol: 1e-3}
	for k := 0; k < 10; k++ {
		if err := ex.Step(g, se, p, 100e-6); err != nil {
			t.Fatal(err)
		}
		if err := ad.Step(g, sa, p, 100e-6); err != nil {
			t.Fatal(err)
		}
	}
	for i := range se.T {
		if d := math.Abs(se.T[i] - sa.T[i]); d > 0.5 {
			t.Fatalf("explicit vs adi differ by %.3f at %d", d, i)
		}
	}
}

// TestStackedPowerFrameValidation pins checkPower on stacked grids:
// frame count must match the active-plane count.
func TestStackedPowerFrameValidation(t *testing.T) {
	g := stackedGrid(t, CoreOnMemoryStack())
	s := g.NewState(DefaultAmbient)
	var e Explicit
	if err := e.Step(g, s, NewPower(uniformField(g, 1)), 200e-6); err == nil {
		t.Fatal("single frame accepted for two active planes")
	}
	if err := e.Step(g, s, NewPower(uniformField(g, 1), nil), 200e-6); err == nil {
		t.Fatal("nil frame accepted")
	}
	if err := e.Step(g, s, NewPower(uniformField(g, 1), geometry.NewField(3, 3, 0.1)), 200e-6); err == nil {
		t.Fatal("mismatched frame accepted")
	}
	if err := e.Step(g, s, NewPower(uniformField(g, 1), uniformField(g, 1)), 200e-6); err != nil {
		t.Fatalf("valid stacked power rejected: %v", err)
	}
}
