package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/obs"
	"hotgauge/internal/perf"
	"hotgauge/internal/power"
	"hotgauge/internal/stats"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
)

// Result is everything a run produced.
type Result struct {
	Config Config

	// StepsRun is how many timesteps actually executed (≤ Config.Steps
	// when StopAtHotspot fired).
	StepsRun int

	// TUH is the time until the first hotspot [s]; +Inf if none occurred.
	TUH float64
	// TUHStep is the 0-based step index of the first hotspot (-1 if none).
	TUHStep int
	// FirstHotspots are the hotspots of the first affected frame.
	FirstHotspots []core.Hotspot

	// Per-step series (always recorded; cheap).
	MaxTemp  []float64 // max junction temperature per step [°C]
	MeanTemp []float64 // mean junction temperature per step [°C]
	Power    []float64 // total die power per step [W]
	IPC      []float64 // workload IPC per step

	// Optional series per RecordOptions.
	MLTD        []float64    // die max MLTD per step [°C]
	Severity    []float64    // die peak severity per step
	TempPcts    [][5]float64 // per-step die temperature percentiles
	DeltaHist   *stats.Histogram
	Fields      []*geometry.Field // sampled junction frames
	FieldSteps  []int             // step index of each sampled frame
	FinalField  *geometry.Field   // last junction frame
	HotspotUnit map[floorplan.Kind]int
	// UnitSeverity holds per-step unit-local severity series for the
	// units requested in Record.UnitSeverity.
	UnitSeverity map[string][]float64
	InitialTemp  float64 // mean junction temperature at t=0 [°C]

	// Multi-die series, populated only when the grid has more than one
	// active plane (Config.StackPreset). DieLabels names the active
	// planes bottom-up; DieMaxTemp[i] is plane i's per-step maximum
	// temperature, and DieSeverity[i] its per-step peak severity (with
	// Record.Severity). On stacked runs MaxTemp is the stack-wide
	// maximum while MeanTemp, MLTD, Severity and hotspot detection stay
	// on the logic die, whose frame is also what Fields/FinalField hold.
	DieLabels   []string
	DieMaxTemp  [][]float64
	DieSeverity [][]float64
	// MemPower is the memory die's per-step total power [W] (stacked
	// presets with a memory die only); Power then includes it.
	MemPower []float64

	// Controller traces (recorded only when a Controller is set).
	ThrottleTrace []float64 // applied throttle per step
	CoreTrace     []int     // core running the primary workload per step

	// Predicted marks a predicted-only result: surrogate triage decided
	// the run's outcome without executing the pipeline, so StepsRun is 0,
	// every series is empty, and Prediction carries the estimate. Exact
	// results of triaged campaigns also carry Prediction (for
	// comparison) but leave Predicted false.
	Predicted bool
	// Prediction is the surrogate's estimate, present whenever the run
	// was scored by triage (predicted-only or exact-verified).
	Prediction *Prediction
	// Audited marks an exact run selected by the audit fraction; its
	// |predicted − exact| severity error feeds surrogate/audit_error.
	Audited bool
}

// SevRMS returns the RMS of the recorded severity series (§V-B).
func (r *Result) SevRMS() float64 { return stats.RMS(r.Severity) }

// Run executes one co-simulation.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: ctx is polled between
// thermal timesteps, so a cancelled context aborts the run at the next
// step boundary and RunCtx returns the cancellation cause (partial
// results are discarded). Cancellation never interrupts a solver
// mid-step, keeping shared solver scratch state consistent for reuse.
//
// RunCtx is fault-isolated: a panic anywhere on the run's goroutine is
// recovered, counted in sim/panics, and returned as a *PanicError
// carrying the stack, so one degenerate configuration cannot take down
// a campaign or the serving daemon. When Config.MaxWallTime is set the
// run additionally races a per-run deadline, aborting at the next step
// boundary with a *RunTimeoutError (counted in sim/timeouts). A solve
// that produces a non-finite frame maximum fails with a
// *SolverDivergedError instead of recording NaNs.
//
// When Config.Checkpoint is set the run is resumable: it restores the
// latest matching snapshot at start (continuing mid-run instead of from
// t=0), snapshots every Config.CheckpointEvery completed steps, and
// clears the snapshot on success — see Checkpointer.
//
// The returned Result carries the caller's Config verbatim — defaults
// are filled only in RunCtx's private copy, and solver instrumentation
// touches only observability fields the hash ignores — so Result.Config
// always hashes identically to the submitted config and can be
// resubmitted as-is.
func RunCtx(ctx context.Context, cfg Config) (res *Result, err error) {
	pristine := cfg
	m := newRunMetrics(cfg.Obs)
	defer func() {
		if r := recover(); r != nil {
			m.panics.Inc()
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if cfg.MaxWallTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, cfg.MaxWallTime,
			&RunTimeoutError{Limit: cfg.MaxWallTime})
		defer cancel()
	}
	runSpan := m.run.Start()
	defer runSpan.End()
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		instrumentSolver(cfg.Solver, cfg.Obs)
	}
	setupSpan := m.setup.Start()
	fp, err := floorplan.New(cfg.Floorplan)
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(fp, tech.TurboPoint)
	if err != nil {
		return nil, err
	}
	grid, err := thermal.NewGrid(fp.Die, cfg.Resolution, cfg.Stack, cfg.SinkConductance, cfg.Ambient)
	if err != nil {
		return nil, err
	}
	src, err := cfg.newSource()
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		src = perf.NewCountingSource(src,
			cfg.Obs.Counter(MetricPerfSteps),
			cfg.Obs.Counter(MetricPerfInstructions),
			cfg.Obs.Counter(MetricPerfCycles))
	}
	proto := geometry.NewField(grid.NX, grid.NY, cfg.Resolution)
	analyzer, err := core.NewAnalyzer(proto, cfg.Definition)
	if err != nil {
		return nil, err
	}
	stk, err := newStackRuntime(&cfg, fp, grid)
	if err != nil {
		return nil, err
	}
	raster := newRasterCache(fp.Units, grid.NX, grid.NY, cfg.Resolution,
		grid.ActiveLayerIndex(stk.corePlane)*grid.NX*grid.NY)

	state, err := initialState(cfg, pm, grid, raster, stk)
	if err != nil {
		return nil, err
	}

	// Secondary multi-programmed workloads, one source per assigned core.
	secondary := map[int]perf.Source{}
	for c, prof := range cfg.Assignments {
		s, err := (&Config{Workload: prof, UseCycleModel: cfg.UseCycleModel}).newSource()
		if err != nil {
			return nil, err
		}
		secondary[c] = s
	}
	setupSpan.End()

	res = &Result{Config: pristine, TUH: math.Inf(1), TUHStep: -1, InitialTemp: grid.MeanTemp(state)}
	planes := grid.ActiveLayers()
	stacked := planes > 1
	if stacked {
		res.DieLabels = dieLabels(grid)
		res.DieMaxTemp = make([][]float64, planes)
		if cfg.Record.Severity {
			res.DieSeverity = make([][]float64, planes)
		}
	}
	if cfg.Record.CellDeltas {
		res.DeltaHist, _ = stats.NewHistogram(-5, 5, 200)
	}
	if cfg.Record.HotspotUnits {
		res.HotspotUnit = map[floorplan.Kind]int{}
	}
	if len(cfg.Record.UnitSeverity) > 0 {
		res.UnitSeverity = map[string][]float64{}
		for _, name := range cfg.Record.UnitSeverity {
			if _, ok := fp.Unit(name); !ok {
				return nil, fmt.Errorf("sim: unknown unit %q in Record.UnitSeverity", name)
			}
			res.UnitSeverity[name] = nil
		}
	}

	// Steady-state fast path: the detector watches the rasterized power
	// map for quiescence (see Config.FastSteady). Its state rides
	// checkpoints so a resumed run arms and jumps on the same steps as
	// an uninterrupted one.
	var steady *steadyDetector
	if cfg.FastSteady {
		steady = &steadyDetector{after: cfg.FastSteadyAfter, tol: cfg.FastSteadyTol}
	}

	// Resume from the latest checkpoint, if one exists and matches: the
	// thermal state and recorded series are restored and the sources
	// fast-forwarded, so the loop below continues at startStep instead
	// of t=0.
	startStep := 0
	if cfg.Checkpoint != nil {
		startStep = m.resume(cfg, state, res, src, secondary, steady)
	}

	idle := perf.IdleActivity(perf.DefaultConfig()).Unit
	// Double-buffered junction frames: the step loop alternates between
	// two fields instead of allocating one per step; frames that outlive
	// a step (Result.Fields samples) are cloned on demand.
	prevField := grid.ActiveFieldAt(state, stk.corePlane)
	curField := geometry.NewField(grid.NX, grid.NY, cfg.Resolution)
	powerField := stk.coreFrame()
	var dieField *geometry.Field
	if stacked && cfg.Record.Severity {
		dieField = geometry.NewField(grid.NX, grid.NY, cfg.Resolution)
	}
	tempTh := analyzer.Definition().TempThreshold
	var pcts stats.Selector // reused across frames: percentiles allocate nothing per step

	curCore := cfg.Core
	throttle := 1.0
	for step := startStep; step < cfg.Steps; step++ {
		if ctx.Err() != nil {
			return nil, m.ctxCause(ctx)
		}
		perfSpan := m.perf.Start()
		act := src.Step(step, cfg.CyclesPerStep)
		if throttle < 1 {
			act = scaleActivity(act, throttle)
		}

		// Assemble per-core activity: the pinned core runs the (possibly
		// throttled) primary workload, assigned cores run their own
		// workloads, and the rest run OS background noise with deep
		// C-states. A *stalled* core still burns its full clock floor,
		// but a core whose workload is mostly descheduled (low phase
		// intensity) drops into C-states between bursts, so its floor
		// scales with duty until it saturates at the active floor.
		floorFor := func(intensity float64) float64 {
			duty := math.Min(1, intensity/0.5)
			return power.IdleGateFloor + (power.ActiveGateFloor-power.IdleGateFloor)*duty
		}
		var in power.Input
		memAcc := float64(act.Counters.MemAccesses)
		loads, stores := float64(act.Counters.Loads), float64(act.Counters.Stores)
		for c := 0; c < floorplan.NumCores; c++ {
			switch {
			case c == curCore:
				in.CoreActivity[c] = act.Unit
				in.CoreFloor[c] = floorFor(cfg.Workload.ParamsAt(step).Intensity * throttle)
			case secondary[c] != nil:
				sAct := secondary[c].Step(step, cfg.CyclesPerStep)
				prof := cfg.Assignments[c]
				in.CoreActivity[c] = sAct.Unit
				in.CoreFloor[c] = floorFor(prof.ParamsAt(step).Intensity)
				memAcc += float64(sAct.Counters.MemAccesses)
				loads += float64(sAct.Counters.Loads)
				stores += float64(sAct.Counters.Stores)
			default:
				in.CoreActivity[c] = idle
				in.CoreFloor[c] = power.IdleGateFloor
			}
		}
		perfSpan.End()

		powerSpan := m.power.Start()
		in.TempDefault = cfg.Ambient
		if !cfg.DisableLeakageFeedback {
			in.UnitTemp = raster.unitMeans(grid, state)
		}
		pr := pm.Compute(in)

		// Rasterize unit powers onto the logic die's plane, then evaluate
		// the memory die (if any) from this step's aggregate traffic.
		for i := range powerField.Data {
			powerField.Data[i] = 0
		}
		raster.inject(powerField, pr)
		memPower := stk.stepMemory(grid, state, memAcc, loads, stores, cfg.CyclesPerStep)
		powerSpan.End()

		thermalSpan := m.thermal.Start()
		armed := steady != nil && steady.observe(stk.steadyView())
		switch {
		case armed && !steady.converged:
			// The power map has been steady long enough: jump to the SOR
			// steady state instead of integrating the settling tail.
			if _, err := thermal.SolveSteady(grid, state, stk.pw, 0, 0); err != nil {
				return nil, err
			}
			steady.converged = true
			m.steadyJumps.Inc()
		case armed:
			// Already at the steady state for this (constant) power map:
			// the solver step is a no-op, skip it.
			m.steadySkips.Inc()
		default:
			if err := cfg.Solver.Step(grid, state, stk.pw, Timestep); err != nil {
				return nil, err
			}
		}
		field := curField
		if err := grid.ActiveFieldAtInto(state, stk.corePlane, field); err != nil {
			return nil, err
		}
		thermalSpan.End()

		recordSpan := m.record.Start()
		if cfg.Controller != nil {
			res.ThrottleTrace = append(res.ThrottleTrace, throttle)
			res.CoreTrace = append(res.CoreTrace, curCore)
			d := cfg.Controller.Control(step, field, curCore)
			if d.Throttle > 0 {
				throttle = math.Min(d.Throttle, 1)
			} else {
				throttle = 1
			}
			if t := d.MigrateTo; t >= 0 && t < floorplan.NumCores && t != curCore && secondary[t] == nil {
				curCore = t
			}
		}

		// Per-step series. On a stacked grid MaxTemp covers every active
		// plane; per-die maxima land in DieMaxTemp.
		maxT, _, _ := field.Max()
		if stacked {
			for i := 0; i < planes; i++ {
				m := maxT
				if i != stk.corePlane {
					m = grid.MaxTempAt(state, i)
				}
				res.DieMaxTemp[i] = append(res.DieMaxTemp[i], m)
				if m > maxT {
					maxT = m
				}
			}
		}
		if math.IsNaN(maxT) || math.IsInf(maxT, 0) {
			return nil, &SolverDivergedError{Step: step, Solver: cfg.Solver.Name(), MaxTemp: maxT}
		}
		res.MaxTemp = append(res.MaxTemp, maxT)
		res.MeanTemp = append(res.MeanTemp, field.Mean())
		if stk.dram != nil {
			res.MemPower = append(res.MemPower, memPower)
			res.Power = append(res.Power, pr.TotalPower()+memPower)
		} else {
			res.Power = append(res.Power, pr.TotalPower())
		}
		res.IPC = append(res.IPC, act.Counters.IPC())
		// One MLTD scan yields both the MLTD and severity samples.
		var sev float64
		switch {
		case cfg.Record.MLTD && cfg.Record.Severity:
			var mltd float64
			mltd, sev = analyzer.MaxMLTDSeverity(field)
			res.MLTD = append(res.MLTD, mltd)
		case cfg.Record.MLTD:
			res.MLTD = append(res.MLTD, analyzer.MaxMLTD(field))
		case cfg.Record.Severity:
			sev = analyzer.MaxSeverity(field)
		}
		if cfg.Record.Severity {
			res.Severity = append(res.Severity, sev)
			if stacked {
				for i := 0; i < planes; i++ {
					s := sev
					if i != stk.corePlane {
						if err := grid.ActiveFieldAtInto(state, i, dieField); err != nil {
							return nil, err
						}
						s = analyzer.MaxSeverity(dieField)
					}
					res.DieSeverity[i] = append(res.DieSeverity[i], s)
				}
			}
		}
		if cfg.Record.TempPercentiles {
			var p [5]float64
			pcts.Percentiles(p[:], field.Data, 5, 25, 50, 75, 95)
			res.TempPcts = append(res.TempPcts, p)
		}
		if cfg.Record.CellDeltas {
			for i := range field.Data {
				res.DeltaHist.Add(field.Data[i] - prevField.Data[i])
			}
		}
		for _, name := range cfg.Record.UnitSeverity {
			res.UnitSeverity[name] = append(res.UnitSeverity[name],
				unitSeverity(fp, analyzer, field, name))
		}
		if cfg.Record.FieldEvery > 0 && step%cfg.Record.FieldEvery == 0 {
			res.Fields = append(res.Fields, field.Clone())
			res.FieldSteps = append(res.FieldSteps, step)
			m.frames.Inc()
		}
		recordSpan.End()

		// Hotspot detection. A frame whose hottest cell is at or below
		// the temperature threshold provably contains no hotspot
		// (Definition 1 requires T > T_th), so the whole pass is skipped.
		needDetect := cfg.StopAtHotspot || cfg.Record.HotspotUnits || res.TUHStep < 0
		if needDetect && maxT <= tempTh {
			needDetect = false
			m.detectSkips.Inc()
		}
		if needDetect {
			detectSpan := m.detect.Start()
			hs := analyzer.Detect(field)
			m.hotspots.Add(int64(len(hs)))
			if len(hs) > 0 {
				if res.TUHStep < 0 {
					res.TUHStep = step
					res.TUH = float64(step+1) * Timestep
					res.FirstHotspots = hs
				}
				if cfg.Record.HotspotUnits {
					for _, h := range hs {
						if u, ok := fp.UnitAt(h.X, h.Y); ok {
							res.HotspotUnit[u.Kind]++
						}
					}
				}
				if cfg.StopAtHotspot {
					detectSpan.End()
					m.steps.Inc()
					m.runs.Inc()
					res.StepsRun = step + 1
					res.FinalField = field
					m.clearCheckpoint(cfg)
					return res, nil
				}
			}
			detectSpan.End()
		}
		prevField, curField = field, prevField
		res.StepsRun = step + 1
		m.steps.Inc()

		// Snapshot at the checkpoint period. The final step never
		// snapshots — the run is about to finish and clear the
		// checkpoint anyway. A failed save degrades durability, not the
		// run: it is counted and the simulation continues.
		if cfg.Checkpoint != nil && cfg.CheckpointEvery > 0 &&
			(step+1)%cfg.CheckpointEvery == 0 && step+1 < cfg.Steps {
			if err := cfg.Checkpoint.Save(snapshot(state, res, step+1, cfg.Steps, steady)); err != nil {
				m.ckptErrors.Inc()
			} else {
				m.checkpoints.Inc()
			}
		}
	}
	res.FinalField = prevField
	m.runs.Inc()
	m.clearCheckpoint(cfg)
	return res, nil
}

// instrumentSolver fills the nil observability fields of a stock solver
// with handles from the registry, so campaign and daemon runs get
// substep accounting without constructing solvers themselves. Fields a
// caller already wired are left alone, and custom Solver
// implementations are untouched. Mutating the caller's solver is safe
// under the Solver contract (no concurrent sharing); a solver reused
// across sequential runs keeps the first run's handles.
func instrumentSolver(s thermal.Solver, r *obs.Registry) {
	switch sv := s.(type) {
	case *thermal.Explicit:
		if sv.Substeps == nil {
			sv.Substeps = r.Counter(MetricThermalSubsteps)
		}
		if sv.StabilityHits == nil {
			sv.StabilityHits = r.Counter(MetricThermalStability)
		}
	case *thermal.Implicit:
		if sv.Substeps == nil {
			sv.Substeps = r.Counter(MetricThermalGSIters)
		}
		if sv.StabilityHits == nil {
			sv.StabilityHits = r.Counter(MetricThermalStability)
		}
		if sv.Residual == nil {
			sv.Residual = r.Gauge(MetricThermalGSResidual)
		}
	case *thermal.ADI:
		if sv.Substeps == nil {
			sv.Substeps = r.Counter(MetricThermalSubsteps)
		}
		if sv.Saved == nil {
			sv.Saved = r.Counter(MetricThermalADISaved)
		}
		if sv.StabilityHits == nil {
			sv.StabilityHits = r.Counter(MetricThermalStability)
		}
	}
}

// steadyDetector watches the per-frame power map for quiescence: after
// `after` consecutive frames whose peak-relative change stays within
// `tol`, the run is in the steady regime and may jump/skip (see
// Config.FastSteady). Any larger move disarms it and clears converged,
// returning the run to normal transient integration.
type steadyDetector struct {
	after     int
	tol       float64
	prev      []float64 // previous frame's power map (nil until frame 1)
	frames    int       // consecutive steady frames observed
	converged bool      // state currently holds the steady solution
}

// observe records this frame's power map and reports whether the run is
// armed (power steady for at least `after` frames).
func (sd *steadyDetector) observe(p []float64) bool {
	if sd.prev == nil {
		sd.prev = append([]float64(nil), p...)
		return false
	}
	maxDelta, maxP := 0.0, 0.0
	for i, v := range p {
		if d := math.Abs(v - sd.prev[i]); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(v); a > maxP {
			maxP = a
		}
	}
	copy(sd.prev, p)
	if maxDelta <= sd.tol*maxP {
		sd.frames++
	} else {
		sd.frames = 0
		sd.converged = false
	}
	return sd.frames >= sd.after
}

// clearCheckpoint discards a finished run's snapshot so a repeat
// submission of the same config starts from t=0 (and stays
// byte-identical to the original). Failures only cost durability and
// are counted, never surfaced.
func (m runMetrics) clearCheckpoint(cfg Config) {
	if cfg.Checkpoint == nil {
		return
	}
	if err := cfg.Checkpoint.Clear(); err != nil {
		m.ckptErrors.Inc()
	}
}

// ctxCause resolves a cancelled context into the error a run should
// report: the cancellation cause when one was set (a *RunTimeoutError
// for the per-run deadline, a job-level cause from the serving layer),
// ctx.Err() otherwise. Per-run deadline hits are counted in
// sim/timeouts.
func (m runMetrics) ctxCause(ctx context.Context) error {
	err := context.Cause(ctx)
	if err == nil {
		err = ctx.Err()
	}
	var te *RunTimeoutError
	if errors.As(err, &te) {
		m.timeouts.Inc()
	}
	return err
}

// initialState prepares the thermal state for the configured warmup mode.
func initialState(cfg Config, pm *power.Model, grid *thermal.Grid, raster *rasterCache, stk *stackRuntime) (*thermal.State, error) {
	state := grid.NewState(cfg.Ambient)
	if cfg.Warmup == WarmupCold {
		return state, nil
	}
	// Idle warmup: steady state under the idle background-task power on
	// every core (OS noise, recently descheduled work), giving the
	// non-uniform initial condition the paper adds to 3D-ICE. Background
	// cores duty-cycle between short bursts and C-states: a light clock
	// floor above the deep-idle one.
	const backgroundFloor = 0.02
	idle := perf.IdleActivity(perf.DefaultConfig()).Unit
	var in power.Input
	for c := 0; c < floorplan.NumCores; c++ {
		in.CoreActivity[c] = idle
		in.CoreFloor[c] = backgroundFloor
	}
	in.TempDefault = cfg.Ambient + 10 // mild leakage estimate for warm idle silicon
	pr := pm.Compute(in)
	pf := stk.coreFrame()
	for i := range pf.Data {
		pf.Data[i] = 0
	}
	raster.inject(pf, pr)
	if stk.dram != nil {
		// The idle memory die still refreshes at the base duty and leaks.
		mres := stk.dram.Compute(power.AccessRates{RefreshDuty: power.BaseRefreshDuty})
		mf := stk.frames[stk.memPlane]
		for i := range mf.Data {
			mf.Data[i] = 0
		}
		stk.memRaster.inject(mf, mres)
	}
	if err := thermal.WarmStart(grid, state, stk.pw); err != nil {
		return nil, err
	}
	if _, err := thermal.SolveSteady(grid, state, stk.pw, 1e-4, 0); err != nil {
		return nil, err
	}

	return state, nil
}

// scaleActivity returns a copy of the activity with every per-unit factor
// multiplied by k — the DVFS-like effect of a Controller throttle.
func scaleActivity(a perf.Activity, k float64) perf.Activity {
	out := perf.Activity{Counters: a.Counters, Unit: make(map[floorplan.Kind]float64, len(a.Unit))}
	for kind, v := range a.Unit {
		out.Unit[kind] = v * k
	}
	return out
}

// unitSeverity evaluates the unit-local hotspot severity: the maximum of
// sev(T, MLTD) over the central region of the unit (the central half in
// each dimension). The central region is where the unit's own switching
// power concentrates; edge cells mostly report the neighbours'
// temperature, which would mask the effect of scaling the unit itself.
func unitSeverity(fp *floorplan.Floorplan, analyzer *core.Analyzer, field *geometry.Field, name string) float64 {
	u, ok := fp.Unit(name)
	if !ok {
		return 0
	}
	best := 0.0
	r := u.Rect.ScaledAbout(0.5)
	if r.W < field.Dx || r.H < field.Dx {
		r = u.Rect // tiny units: use the whole rect
	}
	ix0, iy0, _ := field.CellAt(r.X+1e-9, r.Y+1e-9)
	ix1, iy1, _ := field.CellAt(r.MaxX()-1e-9, r.MaxY()-1e-9)
	for iy := max(iy0, 0); iy <= min(iy1, field.NY-1); iy++ {
		for ix := max(ix0, 0); ix <= min(ix1, field.NX-1); ix++ {
			if s := core.Severity(field.At(ix, iy), analyzer.MLTDAt(field, ix, iy)); s > best {
				best = s
			}
		}
	}
	return best
}
