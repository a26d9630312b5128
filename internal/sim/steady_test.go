package sim

import (
	"context"
	"math"
	"testing"

	"hotgauge/internal/fault"
	"hotgauge/internal/geometry"
	"hotgauge/internal/obs"
	"hotgauge/internal/thermal"
)

// fastSteadyConfig is a run whose power map is steady enough to arm the
// fast path: a phaseless workload with leakage feedback frozen, so the
// only frame-to-frame power movement is the interval model's ~2%
// stochastic jitter — inside the 5% tolerance, outside the 0.1% default.
func fastSteadyConfig(t *testing.T, steps int) Config {
	cfg := fastConfig(t, "hmmer", steps)
	cfg.DisableLeakageFeedback = true
	cfg.FastSteady = true
	cfg.FastSteadyAfter = 3
	cfg.FastSteadyTol = 0.05
	return cfg
}

func TestADISolverPathWorks(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Solver = &thermal.ADI{}
	cfg.Obs = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(fastConfig(t, "gcc", 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.MaxTemp {
		// ADI bounds the added error per step by ErrTol (default 0.1 °C);
		// the remaining gap to explicit forward Euler is the two schemes'
		// O(dt) discretization difference.
		if math.Abs(res.MaxTemp[i]-explicit.MaxTemp[i]) > 2.0 {
			t.Fatalf("solvers diverge at step %d: %v vs %v", i, res.MaxTemp[i], explicit.MaxTemp[i])
		}
	}
	// instrumentSolver wired the bare ADI's counters into the registry.
	s := cfg.Obs.Snapshot()
	if got := s.Counters[MetricThermalSubsteps]; got < int64(res.StepsRun) {
		t.Errorf("%s = %d, want >= %d", MetricThermalSubsteps, got, res.StepsRun)
	}
	if got := s.Counters[MetricThermalADISaved]; got <= 0 {
		t.Errorf("%s = %d, want > 0 (ADI should beat the explicit substep count)", MetricThermalADISaved, got)
	}
}

func TestFastSteadyJumpsAndSkips(t *testing.T) {
	const steps = 12
	cfg := fastSteadyConfig(t, steps)
	cfg.Obs = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Obs.Snapshot()
	jumps, skips := s.Counters[MetricSteadyJumps], s.Counters[MetricSteadySkips]
	if jumps != 1 {
		t.Fatalf("%s = %d, want 1", MetricSteadyJumps, jumps)
	}
	// The detector arms after FastSteadyAfter steady transitions: frame 0
	// seeds it, the jump lands on step FastSteadyAfter, everything after
	// is skipped.
	if want := int64(steps - cfg.FastSteadyAfter - 1); skips != want {
		t.Fatalf("%s = %d, want %d", MetricSteadySkips, skips, want)
	}
	// Skipped steps hold the steady solution exactly.
	jumpStep := cfg.FastSteadyAfter
	for i := jumpStep + 1; i < steps; i++ {
		if res.MaxTemp[i] != res.MaxTemp[jumpStep] {
			t.Fatalf("step %d max %v differs from steady %v after the jump", i, res.MaxTemp[i], res.MaxTemp[jumpStep])
		}
	}

	// The whole point: the transient run is still far below the steady
	// state the fast path jumped to.
	base := cfg
	base.FastSteady = false
	base.Obs = nil
	slow, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTemp[steps-1] < slow.MaxTemp[steps-1]+5 {
		t.Fatalf("fast-steady final %v should be well above the still-settling transient %v",
			res.MaxTemp[steps-1], slow.MaxTemp[steps-1])
	}
}

// TestFastSteadyDefaultTolConservative pins the default threshold: the
// interval model's per-step power jitter (~2%) must NOT count as steady,
// so an opted-in run whose power is merely noisy stays bit-identical to
// plain transient integration.
func TestFastSteadyDefaultTolConservative(t *testing.T) {
	cfg := fastConfig(t, "hmmer", 8)
	cfg.DisableLeakageFeedback = true
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FastSteady = true
	cfg.Obs = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Snapshot().Counters[MetricSteadyJumps]; got != 0 {
		t.Fatalf("%s = %d, want 0 at the default tolerance", MetricSteadyJumps, got)
	}
	sameSeries(t, "MaxTemp", res.MaxTemp, base.MaxTemp)
}

// throttleFrom is a Controller that throttles the primary workload hard
// from a given step on — a step change in the power map far beyond any
// steady tolerance.
type throttleFrom struct{ step int }

func (c *throttleFrom) Control(step int, _ *geometry.Field, _ int) Directive {
	if step >= c.step {
		return Directive{Throttle: 0.3}
	}
	return Directive{}
}

// TestFastSteadyReArmsOnPowerChange drives a power step through the fast
// path: the throttle kick moves the power map far beyond the tolerance,
// disarming the detector (and its converged latch) so transient
// integration resumes, then the new constant stretch re-arms and jumps
// again at the throttled steady state.
func TestFastSteadyReArmsOnPowerChange(t *testing.T) {
	const steps = 16
	cfg := fastSteadyConfig(t, steps)
	cfg.Controller = &throttleFrom{step: 7}
	cfg.Obs = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Obs.Snapshot()
	if jumps := s.Counters[MetricSteadyJumps]; jumps != 2 {
		t.Fatalf("%s = %d, want 2 (one per constant stretch)", MetricSteadyJumps, jumps)
	}
	for i, maxT := range res.MaxTemp {
		if math.IsNaN(maxT) || math.IsInf(maxT, 0) {
			t.Fatalf("step %d max temperature %v not finite", i, maxT)
		}
	}
	// The throttled steady state must sit well below the full-power one.
	if res.MaxTemp[steps-1] > res.MaxTemp[6]-5 {
		t.Fatalf("throttled steady %v not below full-power steady %v", res.MaxTemp[steps-1], res.MaxTemp[6])
	}
}

// TestADICheckpointResumeBitIdentical extends the checkpoint equivalence
// property to the ADI solver: its adaptation is stateless across Step
// calls, so a run killed mid-flight and resumed from a snapshot must
// reproduce the uninterrupted series exactly.
func TestADICheckpointResumeBitIdentical(t *testing.T) {
	const steps = 12
	base := ckptConfig(t, steps)
	base.Solver = &thermal.ADI{}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, errorAt := range []int{2, 5, 12} {
		reg := obs.NewRegistry()
		mem := &memCheckpointer{}
		cfg := ckptConfig(t, steps)
		cfg.Obs = reg
		cfg.Checkpoint = mem
		cfg.CheckpointEvery = 3
		cfg.Solver = &fault.FlakySolver{Inner: &thermal.ADI{}, ErrorAt: errorAt}

		res, err := RunWithRetry(context.Background(), cfg, RetryPolicy{
			MaxAttempts: 2,
			Sleep:       noSleep,
		})
		if err != nil {
			t.Fatalf("errorAt=%d: retried run failed: %v", errorAt, err)
		}
		assertSameResult(t, res, want)
		if errorAt-1 >= cfg.CheckpointEvery {
			if got := reg.Snapshot().Counters[MetricResumes]; got != 1 {
				t.Fatalf("errorAt=%d: sim/resumes = %d, want 1", errorAt, got)
			}
		}
	}
}

// TestFastSteadyCheckpointResume proves the steady detector's state rides
// checkpoints: a fast-path run killed before its jump, resumed from a
// snapshot holding PrevPower and the steady-frame count, arms and jumps
// on the same step as an uninterrupted run — bit-identically.
func TestFastSteadyCheckpointResume(t *testing.T) {
	const steps = 10
	base := fastSteadyConfig(t, steps)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	mem := &memCheckpointer{}
	cfg := fastSteadyConfig(t, steps)
	cfg.Obs = reg
	cfg.Checkpoint = mem
	cfg.CheckpointEvery = 2
	// Solver call 3 is step 2 — after the step-2 snapshot, before the
	// step-3 jump (from step 3 on the solver is never invoked).
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, ErrorAt: 3}

	res, err := RunWithRetry(context.Background(), cfg, RetryPolicy{
		MaxAttempts: 2,
		Sleep:       noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
	s := reg.Snapshot()
	if got := s.Counters[MetricResumes]; got != 1 {
		t.Fatalf("sim/resumes = %d, want 1", got)
	}
	if got := s.Counters[MetricSteadyJumps]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSteadyJumps, got)
	}
}
