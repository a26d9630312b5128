package sim

import (
	"fmt"
	"time"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/obs"
	"hotgauge/internal/perf"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// Timestep is the simulation timestep: 1 M cycles at 5 GHz = 200 µs.
const Timestep = float64(workload.TimestepCycles) / 5e9

// WarmupMode selects the initial thermal condition.
type WarmupMode int

const (
	// WarmupCold starts the whole stack at ambient ("from ambient").
	WarmupCold WarmupMode = iota
	// WarmupIdle initializes the stack to the steady state of an idle
	// background-task workload running on every core — the paper's
	// "idle warmup" non-uniform initialization.
	WarmupIdle
)

// String implements fmt.Stringer.
func (w WarmupMode) String() string {
	if w == WarmupIdle {
		return "idle"
	}
	return "cold"
}

// Config describes one co-simulation run.
type Config struct {
	// Floorplan selects node and mitigation variant. Zero value = 14 nm
	// baseline.
	Floorplan floorplan.Config

	// Workload is the profile to run (single-threaded, as in the paper).
	Workload workload.Profile

	// SMTWorkload optionally runs a second hardware thread on the same
	// core (Table I models SMT-2); activities merge with shared-resource
	// contention. Nil = one thread, as in the paper's experiments.
	SMTWorkload *workload.Profile

	// Source overrides the performance model entirely — e.g. a
	// perf.ReplaySource driving the thermal simulation from a recorded
	// activity trace. When set, Workload is only used for its name and
	// phase-derived clock-floor duty; UseCycleModel and SMTWorkload are
	// ignored.
	Source perf.Source

	// Core is the core index the workload is pinned to (0..6).
	Core int

	// Warmup selects the initial thermal state.
	Warmup WarmupMode

	// Steps is the number of 200 µs timesteps to simulate (the paper's
	// 200 M-instruction ROI spans on the order of hundreds of steps).
	Steps int

	// StopAtHotspot ends the run at the first detected hotspot — the TUH
	// campaigns use this to avoid simulating beyond the answer.
	StopAtHotspot bool

	// Definition parameterizes hotspot detection; zero value uses the
	// case-study thresholds (80 °C, 25 °C, 1 mm).
	Definition core.Definition

	// Resolution is the thermal grid pitch [mm]; zero uses 0.1 mm.
	Resolution float64

	// Ambient temperature [°C]; zero uses 40 °C.
	Ambient float64

	// UseCycleModel selects the window-centric cycle model instead of the
	// analytic interval model (slower; for validation runs).
	UseCycleModel bool

	// CyclesPerStep overrides the simulated cycles per timestep for the
	// cycle model (0 = the full 1 M; tests use fewer).
	CyclesPerStep uint64

	// Solver overrides the thermal solver (nil = explicit).
	Solver thermal.Solver

	// Stack overrides the thermal stack (nil = the Table II default), and
	// SinkConductance the sink-to-ambient conductance [W/K] (0 = the
	// calibrated HS483+fan value). Together they select the cooling
	// solution (e.g. thermal.LiquidCooledStack with
	// thermal.LiquidSinkConductance).
	Stack           []thermal.Layer
	SinkConductance float64

	// StackPreset selects a named multi-die stacked scenario (see
	// StackPresets): the stack gains a second active plane, core power
	// lands on the logic die, and the DRAM power model drives the memory
	// die from the cores' memory-access rates. Mutually exclusive with a
	// custom Stack. Part of Config.Hash — a stacked run must never share
	// a content address with its single-die twin.
	StackPreset string

	// DisableLeakageFeedback freezes leakage at the ambient temperature
	// (the leakage ablation).
	DisableLeakageFeedback bool

	// FastSteady opts the run into the steady-state campaign fast path:
	// when the rasterized power map stays relatively unchanged (within
	// FastSteadyTol of its peak cell) for FastSteadyAfter consecutive
	// frames, the run jumps the thermal state straight to the SOR
	// steady-state solution for the current map and then skips the
	// solver on subsequent constant frames, resuming normal transient
	// integration the moment the power moves again. This collapses the
	// exponential settling tail of long constant-power phases — the
	// dominant cost of steady-state sweep campaigns — at the price of
	// compressing that tail in time, so it changes what the run computes
	// and is part of Config.Hash. Leakage feedback keeps working: a jump
	// raises temperatures, the next frame's leakage rises, and the
	// detector re-arms until power and temperature are self-consistent.
	// Jumps are counted in sim/steady_jumps and skipped solver steps in
	// sim/steady_steps_skipped.
	FastSteady bool
	// FastSteadyAfter is how many consecutive steady frames arm the jump
	// (0 = 5).
	FastSteadyAfter int
	// FastSteadyTol is the relative power-delta threshold below which a
	// frame counts as steady: max-cell |ΔP| ≤ FastSteadyTol · max-cell
	// |P| (0 = 1e-3).
	FastSteadyTol float64

	// Surrogate opts this run into predict-first triage when it is
	// submitted to a surrogate-holding hotgauged or run by hotgauge
	// -surrogate: a Triager scores the config first, and the full
	// pipeline runs only when the predicted severity lands within
	// TriageBand of the hotspot threshold, the prediction's confidence is
	// low, or the run is audit-selected — otherwise the caller records a
	// predicted-only Result. Part of Config.Hash (a predicted-only result
	// must never be cached under an exact run's address); RunCtx itself
	// ignores it, so an exact-verified triaged run is bit-identical to an
	// untriaged one.
	Surrogate bool
	// TriageBand is the guard band below the severity threshold within
	// which predicted runs are exact-verified anyway (0 = 0.1; negative
	// disables the band). Only meaningful with Surrogate.
	TriageBand float64
	// AuditFrac is the fraction of confidently-skippable runs that
	// execute exactly regardless, deterministically selected by config
	// hash, to measure predicted-vs-exact error (0 = 0.1; negative
	// disables auditing). Only meaningful with Surrogate.
	AuditFrac float64

	// Record selects optional per-step series.
	Record RecordOptions

	// Assignments optionally pins additional workloads to other cores,
	// making this a multi-programmed run. Keys are core indices; the
	// primary Workload/Core pair is merged in automatically. Hotspot
	// metrics (TUH, MLTD, severity) remain die-wide.
	Assignments map[int]workload.Profile

	// Controller, when non-nil, is invoked after every timestep with the
	// fresh junction frame and may throttle or migrate the primary
	// workload before the next step — the hook for evaluating dynamic
	// thermal-management policies (the architecture-level mitigation the
	// paper calls for). Secondary Assignments workloads are not steered.
	Controller Controller

	// MaxWallTime bounds the run's wall time (0 = unlimited). The
	// deadline is enforced at step boundaries — a solver is never
	// interrupted mid-step — so a run exceeding it fails with a
	// *RunTimeoutError at the next timestep. Excluded from Config.Hash:
	// it changes when a run gives up, never what it computes.
	MaxWallTime time.Duration

	// Checkpoint, when non-nil together with a positive CheckpointEvery,
	// makes the run resumable: RunCtx snapshots the step index, the full
	// thermal state and all recorded series every CheckpointEvery
	// completed steps, resumes from the latest snapshot at start instead
	// of t=0 (counted in sim/resumes), and clears it on success. An
	// interrupted or retried run (RunWithRetry) therefore repeats only
	// the tail since its last snapshot; for the explicit and ADI solvers
	// the resumed result is bit-identical to an uninterrupted run.
	// Incompatible with Controller, Record.CellDeltas and
	// Record.FieldEvery (their state is not snapshotted). Excluded from
	// Config.Hash: checkpointing changes how a run survives, never what
	// it computes.
	Checkpoint Checkpointer
	// CheckpointEvery is the snapshot period in completed steps
	// (0 disables snapshotting even when Checkpoint is set; loading and
	// clearing still happen, so a retry can finish a run without taking
	// further snapshots).
	CheckpointEvery int

	// Obs, when non-nil, receives the run's metrics: per-stage wall time
	// (sim/stage/*), per-run counters (sim/steps, sim/hotspots,
	// sim/frames_sampled, thermal/substeps, ...) and performance-model
	// throughput (perf/*). Counters are atomic, so one registry may be
	// shared across an entire Campaign to aggregate over workers. Nil
	// disables instrumentation at (near) zero cost.
	Obs *obs.Registry
}

// Controller steers a run between timesteps.
type Controller interface {
	// Control receives the just-completed step index, the junction
	// temperature frame, and the core currently running the primary
	// workload; it returns the directive for the next step.
	Control(step int, frame *geometry.Field, core int) Directive
}

// Directive is a Controller's decision for the next timestep.
type Directive struct {
	// Throttle multiplies the primary workload's intensity (DVFS-like).
	// Values outside (0, 1] are clamped; 0 means "no throttling" so the
	// zero value is a no-op.
	Throttle float64
	// MigrateTo moves the primary workload to another core before the
	// next step; negative means stay.
	MigrateTo int
}

// RecordOptions selects which (potentially expensive) series a run keeps.
type RecordOptions struct {
	// MLTD records the die-wide max MLTD per step (Fig. 9).
	MLTD bool
	// Severity records peak severity per step (sev(t), Figs. 13-14, §V-B).
	Severity bool
	// CellDeltas accumulates per-cell temperature deltas between
	// consecutive frames (Fig. 2). Values are °C per 200 µs.
	CellDeltas bool
	// TempPercentiles records per-step die temperature percentiles
	// (5/25/50/75/95), the Fig. 8 distributions.
	TempPercentiles bool
	// Fields keeps every Nth junction-temperature frame (0 = none,
	// 1 = all). The final frame is always kept.
	FieldEvery int
	// HotspotUnits attributes each detected hotspot to its floorplan unit
	// and counts per unit kind (Fig. 12). Implies running detection each
	// step even when StopAtHotspot is unset.
	HotspotUnits bool
	// UnitSeverity records, per step, the unit-local hotspot severity of
	// the named floorplan units (e.g. "core0.fpIWin"): the maximum over
	// the unit's cells of sev(T, MLTD). This is the quantity the paper's
	// Fig. 13 plots ("the hotspot severity in that unit").
	UnitSeverity []string
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Floorplan.Node == 0 {
		c.Floorplan.Node = tech.Node14
	}
	if c.Core < 0 || c.Core >= floorplan.NumCores {
		return fmt.Errorf("sim: core %d out of range", c.Core)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("sim: non-positive step count %d", c.Steps)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Definition == (core.Definition{}) {
		c.Definition = core.DefaultDefinition()
	}
	if c.Resolution == 0 {
		c.Resolution = thermal.DefaultResolution
	}
	if c.Ambient == 0 {
		c.Ambient = thermal.DefaultAmbient
	}
	if c.CyclesPerStep == 0 {
		c.CyclesPerStep = workload.TimestepCycles
	}
	if c.Solver == nil {
		c.Solver = &thermal.Explicit{}
	}
	if c.StackPreset != "" {
		scn, err := stackScenarioFor(c.StackPreset)
		if err != nil {
			return err
		}
		// Filling the preset's stack must be idempotent (normalize runs
		// again when hashing a normalized config), so an already-filled
		// stack is fine when it matches the preset exactly.
		if c.Stack == nil {
			c.Stack = scn.Stack
		} else if !stacksEqual(c.Stack, scn.Stack) {
			return fmt.Errorf("sim: StackPreset %q and a custom Stack are mutually exclusive", c.StackPreset)
		}
	}
	if c.Stack == nil {
		c.Stack = thermal.DefaultStack()
	}
	if c.SinkConductance == 0 {
		c.SinkConductance = thermal.SinkConductance
	}
	if c.FastSteady {
		if c.FastSteadyAfter <= 0 {
			c.FastSteadyAfter = 5
		}
		if c.FastSteadyTol <= 0 {
			c.FastSteadyTol = 1e-3
		}
	}
	if c.Surrogate {
		c.TriageBand, c.AuditFrac = resolveTriageKnobs(c.TriageBand, c.AuditFrac)
	} else {
		// Triage knobs without Surrogate are inert: zero them so they
		// never perturb the content address of an ordinary run.
		c.TriageBand, c.AuditFrac = 0, 0
	}
	if c.Checkpoint != nil {
		if c.Controller != nil {
			return fmt.Errorf("sim: a run with a Controller is not checkpointable (controller state is not snapshotted)")
		}
		if c.Record.CellDeltas || c.Record.FieldEvery > 0 {
			return fmt.Errorf("sim: Record.CellDeltas and Record.FieldEvery are not checkpointable (frame history is not snapshotted)")
		}
	}
	for core, prof := range c.Assignments {
		if core < 0 || core >= floorplan.NumCores {
			return fmt.Errorf("sim: assignment core %d out of range", core)
		}
		if core == c.Core {
			return fmt.Errorf("sim: core %d has both the primary workload and an assignment", core)
		}
		if err := prof.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// stacksEqual reports whether two layer stacks are identical.
func stacksEqual(a, b []thermal.Layer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newSource builds the configured performance model, wrapping in SMT
// merging when a second thread is configured.
func (c *Config) newSource() (perf.Source, error) {
	if c.Source != nil {
		return c.Source, nil
	}
	cfg := perf.DefaultConfig()
	build := func(prof workload.Profile) (perf.Source, error) {
		if c.UseCycleModel {
			return perf.NewCycleModel(cfg, prof)
		}
		return perf.NewIntervalModel(cfg, prof)
	}
	primary, err := build(c.Workload)
	if err != nil {
		return nil, err
	}
	if c.SMTWorkload == nil {
		return primary, nil
	}
	if err := c.SMTWorkload.Validate(); err != nil {
		return nil, err
	}
	second, err := build(*c.SMTWorkload)
	if err != nil {
		return nil, err
	}
	return perf.NewSMTSource(primary, second), nil
}
