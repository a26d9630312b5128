// Package sim is the perf-power-therm co-simulation driver of Fig. 3: it
// advances the performance model one timestep at a time, converts the
// resulting per-unit activity into a power map (closing the
// leakage-temperature feedback loop against the current thermal state),
// steps the thermal solver, and runs the hotspot characterization of
// internal/core on every junction-temperature frame.
//
// One Run is one (floorplan, workload, core, warmup) configuration; the
// Campaign helper fans Runs out across CPUs for the paper's sweeps,
// continuing past individual failures and joining every per-run error.
// CampaignOpts adds worker caps, live Progress/ETA reporting, and
// metrics aggregation.
//
// Runs are fault-isolated: RunCtx recovers panics into per-run
// *PanicErrors (sim/panics), enforces the per-run wall-time budget of
// Config.MaxWallTime at step boundaries (*RunTimeoutError,
// sim/timeouts), and fails non-finite solves with *SolverDivergedError.
// RunWithRetry re-attempts Retryable failures with exponential backoff +
// jitter (sim/retries), falling a diverging solve back to the
// unconditionally stable ADI solver; the returned Result always carries
// the caller's pristine Config.
//
// Predict-first triage lives in Triager: Score a surrogate-flagged
// config, then either take PredictedResult in place of the run or
// execute it and pass an audit pick's exact peak severity to
// ObserveAudit. hotgauged and hotgauge -surrogate are its two drivers;
// Campaign does not triage.
//
// When Config.Obs is set, Run records per-stage wall time (setup, perf,
// power, thermal, detect, record — the Metric* names in metrics.go) and
// per-run counters into the internal/obs registry; a nil registry
// disables instrumentation at near-zero cost. Both CLIs surface the
// result via -metrics-json and the -v stage table.
package sim
