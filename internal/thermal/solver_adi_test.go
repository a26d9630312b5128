package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hotgauge/internal/geometry"
	"hotgauge/internal/obs"
)

// adiShapes is kernelShapes plus extreme aspect ratios: long thin dies
// stress the per-direction Thomas systems (one direction nearly
// degenerate, the other very deep).
var adiShapes = func() []struct{ nx, ny, nl int } {
	return append(append([]struct{ nx, ny, nl int }{}, kernelShapes...),
		struct{ nx, ny, nl int }{61, 3, 4},
		struct{ nx, ny, nl int }{3, 59, 4},
		struct{ nx, ny, nl int }{2, 2, 11},
	)
}()

// TestADISweepsMatchReference validates the production Douglas–Gunn
// substep — ADI.Step held to one substep, with its precomputed Thomas
// coefficients and plane-vectorized sweeps — against the naive
// assemble-and-solve oracle, across uneven grids, extreme aspect ratios
// and randomized power fields.
func TestADISweepsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(303 + seed))
		for _, sh := range adiShapes {
			g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
			u := randTemps(g.Cells(), rng)
			power := singleLayerPower(g, randPower(g.NX, g.NY, rng))
			name := fmt.Sprintf("seed %d %dx%dx%d", seed, sh.nx, sh.ny, sh.nl)
			checkADISubstep(t, name, &ADI{MaxSubsteps: 1}, g, u, power, 20*g.dtStable)
		}
	}
}

// TestADISweepsMatchReferenceMultiActive repeats the oracle comparison
// with power injected on several grid layers at once — the stacked-die
// configuration the multi-frame Power path produces.
func TestADISweepsMatchReferenceMultiActive(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for _, sh := range adiShapes {
		g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
		u := randTemps(g.Cells(), rng)
		power := multiLayerPower(g, rng)
		name := fmt.Sprintf("%dx%dx%d", sh.nx, sh.ny, sh.nl)
		checkADISubstep(t, name, &ADI{MaxSubsteps: 1}, g, u, power, 20*g.dtStable)
	}
}

// TestADICoefficientReuse pins the coefficient cache: a second substep at
// the same dt must reuse the prepared Thomas coefficients and still match
// the oracle (a stale-cache bug would show up as a mismatch after the
// grid or dt changes).
func TestADICoefficientReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	a := &ADI{MaxSubsteps: 1}
	for _, dtF := range []float64{5, 50, 5} { // revisit the first dt
		for _, sh := range []struct{ nx, ny, nl int }{{9, 8, 5}, {7, 1, 3}} {
			g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
			u := randTemps(g.Cells(), rng)
			power := singleLayerPower(g, randPower(g.NX, g.NY, rng))
			name := fmt.Sprintf("dt=%v·stable %dx%dx%d", dtF, sh.nx, sh.ny, sh.nl)
			checkADISubstep(t, name, a, g, u, power, dtF*g.dtStable)
		}
	}
}

// checkADISubstep steps a copy of u once with a (MaxSubsteps 1, so one
// Douglas–Gunn substep) and a copy with the adiStepRef oracle, under
// the per-layer power planes lp, and fails on any cell beyond 1e-9.
func checkADISubstep(t *testing.T, name string, a *ADI, g *Grid, u []float64, lp [][]float64, dt float64) {
	t.Helper()
	fast := &State{T: append([]float64(nil), u...)}
	ref := append([]float64(nil), u...)
	if err := a.Step(g, fast, activePower(g, lp), dt); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	adiStepRef(g, ref, lp, dt)
	for i := range ref {
		if !closeTo(fast.T[i], ref[i], 1e-9) {
			t.Fatalf("%s: cell %d: fast %.17g vs ref %.17g", name, i, fast.T[i], ref[i])
		}
	}
}

// TestSolverAccuracyTable is the documented accuracy contract per
// (solver, dt): each solver integrates a power transient for 1 ms from a
// cold start and must land within tol [°C] (max over cells) of the
// fine-substep reference integration at dt ≤ dtStable. These bounds are
// what "matched accuracy" means in BENCH_thermal comparisons; tighten
// them only with bench evidence.
func TestSolverAccuracyTable(t *testing.T) {
	cases := []struct {
		name   string
		solver func() Solver
		dtF    float64 // simulation timestep in units of dtStable
		tol    float64 // max abs error vs fine reference [°C]
	}{
		{"explicit/dt=1", func() Solver { return &Explicit{} }, 1, 1e-9},
		{"explicit/dt=20", func() Solver { return &Explicit{} }, 20, 1e-9},
		{"adi/dt=1", func() Solver { return &ADI{} }, 1, 5e-3},
		{"adi/dt=5", func() Solver { return &ADI{} }, 5, 1e-2},
		{"adi/dt=20", func() Solver { return &ADI{} }, 20, 0.05},
		{"adi/dt=75", func() Solver { return &ADI{} }, 75, 0.1},
		// "implicit" is a name alias for ADI and carries its contract.
		{"implicit/dt=20", func() Solver { return mustNewSolver(t, "implicit") }, 20, 0.05},
		{"implicit/dt=75", func() Solver { return mustNewSolver(t, "implicit") }, 75, 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newTestGrid(t)
			power := uniformPower(g, 3.0)
			power.Frames[0].Data[g.NY/2*g.NX+g.NX/2] += 1.0 // hotspot source

			dt := tc.dtF * g.dtStable
			steps := int(math.Ceil(1e-3 / dt))
			s := g.NewState(DefaultAmbient)
			ref := s.Clone()
			solver := tc.solver()
			for k := 0; k < steps; k++ {
				if err := solver.Step(g, s, power, dt); err != nil {
					t.Fatal(err)
				}
				refExplicitStep(g, ref, power, dt)
			}
			worst := 0.0
			for i := range ref.T {
				if d := math.Abs(s.T[i] - ref.T[i]); d > worst {
					worst = d
				}
			}
			if worst > tc.tol {
				t.Fatalf("max error %.3g °C after %d steps of %.3g·dtStable exceeds documented tolerance %.3g",
					worst, steps, tc.dtF, tc.tol)
			}
			// The peak cell drives severity; it must be at least as good
			// as the field-wide bound.
			if d := math.Abs(g.MaxTemp(s) - g.MaxTemp(ref)); d > tc.tol {
				t.Fatalf("peak-temperature error %.3g °C exceeds tolerance %.3g", d, tc.tol)
			}
		})
	}
}

// TestADIUnconditionallyStable drives single ADI substeps at 2000× the
// explicit stability bound (subdivision disabled): every field must stay
// finite and bounded, and the distance to the SOR steady state must
// contract substantially instead of oscillating or diverging. (Full
// convergence is not expected: Douglas–Gunn under-relaxes the slowest
// modes at giant dt — that is precisely why the sim-level steady-state
// fast path jumps via SolveSteady rather than giant ADI steps.)
func TestADIUnconditionallyStable(t *testing.T) {
	g := newTestGrid(t)
	power := uniformPower(g, 4.0)
	steady := g.NewState(DefaultAmbient)
	if err := WarmStart(g, steady, power); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSteady(g, steady, power, 1e-7, 0); err != nil {
		t.Fatal(err)
	}
	distTo := func(s *State) float64 {
		worst := 0.0
		for i := range s.T {
			if math.IsNaN(s.T[i]) || math.IsInf(s.T[i], 0) {
				t.Fatalf("cell %d is not finite: %v", i, s.T[i])
			}
			if d := math.Abs(s.T[i] - steady.T[i]); d > worst {
				worst = d
			}
		}
		return worst
	}

	s := g.NewState(DefaultAmbient)
	solver := &ADI{ErrTol: math.Inf(1), MaxSubsteps: 1}
	dt := 2000 * g.dtStable
	dist0 := distTo(s)
	for k := 0; k < 200; k++ {
		if err := solver.Step(g, s, power, dt); err != nil {
			t.Fatal(err)
		}
	}
	if d := distTo(s); d > dist0/4 {
		t.Fatalf("after 200 giant steps still %.3g °C from steady (started %.3g): not contracting", d, dist0)
	}
	maxSteady := g.MaxTemp(steady)
	if maxT := g.MaxTemp(s); maxT > maxSteady+1 {
		t.Fatalf("field overshot steady state: max %.3f vs steady max %.3f", maxT, maxSteady)
	}
}

// TestADIAdaptiveSubstepping pins the adaptive policy at both ends: a
// quiescent frame (field already in equilibrium with the power map)
// takes exactly one substep and banks the explicit-equivalent savings,
// while a cold-start transient subdivides and still meets ErrTol
// against the fine reference.
func TestADIAdaptiveSubstepping(t *testing.T) {
	g := newTestGrid(t)
	power := uniformPower(g, 4.0)
	dt := 200e-6

	// Quiescent: start at steady state.
	s := g.NewState(DefaultAmbient)
	if err := WarmStart(g, s, power); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSteady(g, s, power, 1e-7, 0); err != nil {
		t.Fatal(err)
	}
	solver := &ADI{Substeps: &obs.Counter{}, Saved: &obs.Counter{}, StabilityHits: &obs.Counter{}}
	if err := solver.Step(g, s, power, dt); err != nil {
		t.Fatal(err)
	}
	if n := solver.Substeps.Value(); n != 1 {
		t.Fatalf("quiescent frame took %d substeps, want 1", n)
	}
	if saved := solver.Saved.Value(); saved <= 0 {
		t.Fatalf("quiescent frame saved %d explicit-equivalent substeps, want > 0", saved)
	}

	// Transient: cold start under the same power, one full timestep.
	cold := g.NewState(DefaultAmbient)
	ref := cold.Clone()
	transient := &ADI{Substeps: &obs.Counter{}}
	if err := transient.Step(g, cold, power, dt); err != nil {
		t.Fatal(err)
	}
	refExplicitStep(g, ref, power, dt)
	tol := 0.1 // the solver's default ErrTol
	for i := range ref.T {
		if d := math.Abs(cold.T[i] - ref.T[i]); d > tol {
			t.Fatalf("cell %d: transient error %.3g exceeds ErrTol %.3g (substeps=%d)",
				i, d, tol, transient.Substeps.Value())
		}
	}
}

// TestADILadderPinned pins the Richardson ladder bit for bit. Random
// fields stepped at 20·dtStable under tight ErrTol escalate on most
// steps, so the sha256 over every committed field and the total substep
// count cover each ladder level's sweeps, RHS scaling and commits. Both
// values were captured before the ladder shared its sweeps with the
// level-1 path; any change to an ADI coefficient, a sweep's operation
// order or the escalation policy moves them.
func TestADILadderPinned(t *testing.T) {
	const (
		wantSum      = "faeb484eab01bd5cf4a1a88a7f782760c123737d437711787a035a0b5906c02e"
		wantSubsteps = 13008
	)
	h := sha256.New()
	var buf [8]byte
	substeps := &obs.Counter{}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(505 + seed))
		for _, sh := range adiShapes {
			for _, tol := range []float64{1e-1, 1e-3, 1e-6} {
				for _, multi := range []bool{false, true} {
					g := syntheticGrid(sh.nx, sh.ny, sh.nl, rng)
					lp := singleLayerPower(g, randPower(g.NX, g.NY, rng))
					if multi {
						lp = multiLayerPower(g, rng)
					}
					power := activePower(g, lp)
					s := &State{T: randTemps(g.Cells(), rng)}
					a := &ADI{ErrTol: tol, MaxSubsteps: 16, Substeps: substeps}
					for k := 0; k < 3; k++ {
						if err := a.Step(g, s, power, 20*g.dtStable); err != nil {
							t.Fatal(err)
						}
					}
					for _, v := range s.T {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
						h.Write(buf[:])
					}
				}
			}
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if sum != wantSum || substeps.Value() != wantSubsteps {
		t.Fatalf("ladder fields sha256 %s with %d substeps, want %s with %d",
			sum, substeps.Value(), wantSum, wantSubsteps)
	}
}

// activePower makes the non-nil planes of lp the grid's active layers
// and wraps them, bottom-up, as the Power that Step takes.
func activePower(g *Grid, lp [][]float64) *Power {
	g.active = g.active[:0]
	p := &Power{}
	for l, d := range lp {
		if d != nil {
			g.active = append(g.active, l)
			p.Frames = append(p.Frames, &geometry.Field{NX: g.NX, NY: g.NY, Dx: g.Dx * 1e3, Data: d})
		}
	}
	return p
}

func TestADIStepNoAllocsAfterWarmup(t *testing.T) {
	g := newTestGrid(t)
	power := uniformPower(g, 2.0)
	s := g.NewState(DefaultAmbient)
	var solver ADI
	if err := solver.Step(g, s, power, 200e-6); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := solver.Step(g, s, power, 200e-6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ADI.Step allocates %v objects per call after warmup", allocs)
	}
}

func mustNewSolver(t *testing.T, name string) Solver {
	t.Helper()
	s, err := NewSolver(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
