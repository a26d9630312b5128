package sim

import "hotgauge/internal/obs"

// Metric names Run records into Config.Obs. Stage timers share the
// StagePrefix so CLIs can extract the breakdown with Snapshot.Stages.
const (
	// StagePrefix is the common prefix of all per-stage timers.
	StagePrefix = "sim/stage/"

	// MetricRunTime is the whole-of-Run wall-time timer; the stage
	// timers below partition (nearly all of) it.
	MetricRunTime = "sim/run"
	// MetricStageSetup covers model construction and thermal warmup.
	MetricStageSetup = StagePrefix + "setup"
	// MetricStagePerf covers the performance model and per-core
	// activity assembly.
	MetricStagePerf = StagePrefix + "perf"
	// MetricStagePower covers the power model and rasterization onto
	// the active layer.
	MetricStagePower = StagePrefix + "power"
	// MetricStageThermal covers the thermal solver step.
	MetricStageThermal = StagePrefix + "thermal"
	// MetricStageDetect covers hotspot detection.
	MetricStageDetect = StagePrefix + "detect"
	// MetricStageRecord covers controller steering and per-step series
	// recording: the frame's one analysis pass (a single MLTD scan
	// yielding the max-MLTD and cut-pruned peak-severity samples, plus
	// one per extra die for per-die severity), temperature percentiles
	// by selection, cell deltas and frame samples.
	MetricStageRecord = StagePrefix + "record"

	// MetricRuns counts completed Run invocations.
	MetricRuns = "sim/runs"
	// MetricSteps counts executed simulation timesteps.
	MetricSteps = "sim/steps"
	// MetricHotspots counts hotspots returned by the detector.
	MetricHotspots = "sim/hotspots"
	// MetricDetectSkipped counts steps whose detection pass was skipped
	// because the frame's max temperature was provably below the
	// definition's temperature threshold (no cell can be a hotspot).
	MetricDetectSkipped = "sim/detect_skipped"
	// MetricFrames counts junction frames sampled into Result.Fields.
	MetricFrames = "sim/frames_sampled"

	// MetricPanics counts panics recovered on run goroutines and
	// converted into per-run PanicErrors (fault isolation); zero in a
	// healthy deployment.
	MetricPanics = "sim/panics"
	// MetricRetries counts re-attempts made by RunWithRetry after a
	// Retryable failure (the first attempt is not counted).
	MetricRetries = "sim/retries"
	// MetricTimeouts counts runs aborted because they exceeded their
	// per-run wall-time budget (Config.MaxWallTime).
	MetricTimeouts = "sim/timeouts"

	// MetricCheckpoints counts snapshots written via Config.Checkpoint;
	// MetricCheckpointErrors counts snapshot saves/loads/clears that
	// failed (the run continues either way — a broken checkpoint sink
	// degrades durability, not correctness); MetricResumes counts runs
	// that restored a snapshot and continued mid-run instead of from t=0.
	MetricCheckpoints      = "sim/checkpoints"
	MetricCheckpointErrors = "sim/checkpoint_errors"
	MetricResumes          = "sim/resumes"

	// MetricThermalSubsteps counts solver substeps (explicit
	// stability-bounded substeps, or ADI substeps including abandoned
	// ladder levels); MetricThermalStability counts steps that hit the
	// stability bound (explicit), the iteration cap (implicit) or the
	// subdivision cap (ADI).
	MetricThermalSubsteps  = "thermal/substeps"
	MetricThermalStability = "thermal/stability_hits"
	// MetricThermalGSIters counts the implicit solver's inner
	// Gauss-Seidel sweeps; MetricThermalGSResidual records the final
	// sweep residual of its latest Step [°C].
	MetricThermalGSIters    = "thermal/gs_iters"
	MetricThermalGSResidual = "thermal/gs_residual"
	// MetricThermalADISaved accumulates the explicit-equivalent substeps
	// the ADI solver avoided (ceil(dt/dtStable) minus ADI substeps
	// executed, per Step).
	MetricThermalADISaved = "thermal/adi_substeps_saved"

	// MetricSteadyJumps counts steady-state fast-path jumps (the run
	// replaced a solver step with the SOR steady solution);
	// MetricSteadySkips counts the solver steps skipped afterwards while
	// the power map stayed constant. Both are zero unless
	// Config.FastSteady is set.
	MetricSteadyJumps = "sim/steady_jumps"
	MetricSteadySkips = "sim/steady_steps_skipped"

	// Surrogate triage counters, recorded by Triager (predict-first
	// campaigns): MetricSurrogatePredictions counts configs scored,
	// MetricSurrogatePredictErrors predictions that failed (the run falls
	// back to exact execution), MetricSurrogateExactRuns runs triage sent
	// to the full pipeline (frontier, low confidence, audit or predictor
	// failure), MetricSurrogateSkippedRuns runs resolved predicted-only,
	// and MetricSurrogateAuditRuns the audit-selected exact runs.
	// MetricSurrogateAuditError gauges the running mean absolute
	// |predicted − exact| peak-severity error over the audited runs.
	MetricSurrogatePredictions   = "surrogate/predictions"
	MetricSurrogatePredictErrors = "surrogate/predict_errors"
	MetricSurrogateExactRuns     = "surrogate/exact_runs"
	MetricSurrogateSkippedRuns   = "surrogate/skipped_runs"
	MetricSurrogateAuditRuns     = "surrogate/audit_runs"
	MetricSurrogateAuditError    = "surrogate/audit_error"

	// Perf-model throughput counters, recorded via perf.CountingSource.
	MetricPerfSteps        = "perf/steps"
	MetricPerfInstructions = "perf/instructions"
	MetricPerfCycles       = "perf/cycles"
)

// runMetrics holds the resolved metric handles of one Run. All fields
// are nil when the registry is nil, making every record site a cheap
// nil-check no-op — the "no-op registry" baseline of bench_test.go.
type runMetrics struct {
	runs, steps, hotspots, frames, detectSkips *obs.Counter
	panics, timeouts                           *obs.Counter
	checkpoints, ckptErrors, resumes           *obs.Counter
	steadyJumps, steadySkips                   *obs.Counter

	run, setup, perf, power, thermal, detect, record *obs.Timer
}

// newRunMetrics resolves every handle once so the hot loop never
// touches the registry's mutex.
func newRunMetrics(r *obs.Registry) runMetrics {
	return runMetrics{
		runs:        r.Counter(MetricRuns),
		steps:       r.Counter(MetricSteps),
		hotspots:    r.Counter(MetricHotspots),
		frames:      r.Counter(MetricFrames),
		detectSkips: r.Counter(MetricDetectSkipped),
		panics:      r.Counter(MetricPanics),
		timeouts:    r.Counter(MetricTimeouts),
		checkpoints: r.Counter(MetricCheckpoints),
		ckptErrors:  r.Counter(MetricCheckpointErrors),
		resumes:     r.Counter(MetricResumes),
		steadyJumps: r.Counter(MetricSteadyJumps),
		steadySkips: r.Counter(MetricSteadySkips),
		run:         r.Timer(MetricRunTime),
		setup:       r.Timer(MetricStageSetup),
		perf:        r.Timer(MetricStagePerf),
		power:       r.Timer(MetricStagePower),
		thermal:     r.Timer(MetricStageThermal),
		detect:      r.Timer(MetricStageDetect),
		record:      r.Timer(MetricStageRecord),
	}
}
