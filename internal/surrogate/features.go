package surrogate

import (
	"fmt"
	"math"
	"sort"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/perf"
	"hotgauge/internal/power"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// featureNames is the fixed feature schema, in emission order. Features
// appends values in exactly this order and verifies the alignment at
// runtime; serialized models pin the schema they were trained with and
// refuse to load against a different one (see Decode).
var featureNames = []string{
	// Process, geometry and grid.
	"node_nm", "die_w_mm", "die_h_mm", "die_area_mm2", "core_area_mm2",
	"units", "ic_area_factor", "resolution_mm", "ambient_c",
	"sink_conductance_w_per_k", "stack_layers",
	// Run shape.
	"steps", "steps_log2", "core_index", "warmup_idle", "stop_at_hotspot",
	"use_cycle_model", "leakage_off", "fast_steady",
	// Hotspot definition.
	"temp_threshold_c", "mltd_threshold_c", "mltd_radius_mm",
	// Solver one-hot (explicit is the all-zero baseline).
	"solver_implicit", "solver_adi",
	// Workload profile and phase schedule.
	"wl_intensity_nominal", "wl_intensity_mean", "wl_intensity_peak",
	"wl_intensity_min", "wl_phase_period", "wl_peak_step_frac",
	"wl_mix_int_alu", "wl_mix_calu", "wl_mix_fp", "wl_mix_avx",
	"wl_mix_load", "wl_mix_store", "wl_mix_branch",
	"wl_ilp", "wl_branch_pred", "wl_working_set_log2",
	"wl_stride_locality", "wl_mlp", "wl_fp_suite",
	"smt", "assignments",
	// Activity/power statistics from a cheap interval-model probe of the
	// phase schedule (peak = the sampled step with the highest total
	// die power).
	"p_total_peak_w", "p_total_mean_w", "p_core_peak_w",
	"p_core_density_peak_w_mm2", "p_unit_density_peak_w_mm2",
	"act_unit_peak", "act_unit_mean",
}

// FeatureNames returns the feature schema in emission order.
func FeatureNames() []string { return append([]string(nil), featureNames...) }

// featureVec pairs names with values during emission so a drifted
// Features implementation fails loudly instead of silently misaligning.
type featureVec struct {
	names []string
	vals  []float64
}

func (f *featureVec) add(name string, v float64) {
	f.names = append(f.names, name)
	f.vals = append(f.vals, v)
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Features maps a config to its deterministic feature vector, aligned
// with FeatureNames. The triage knobs themselves (Surrogate, TriageBand,
// AuditFrac) are deliberately excluded: they never change the physics,
// so a model trained on ordinary campaign results applies unchanged to
// the surrogate-flagged configs triage scores. Configs the analytic
// extraction cannot represent (a custom perf.Source or Controller) are
// rejected.
func Features(cfg sim.Config) ([]float64, error) {
	if cfg.Source != nil {
		return nil, fmt.Errorf("surrogate: config with a custom Source has no analytic features")
	}
	if cfg.Controller != nil {
		return nil, fmt.Errorf("surrogate: config with a Controller has no analytic features")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("surrogate: non-positive step count %d", cfg.Steps)
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	// Mirror the simulator's defaults so a sparse config and its
	// normalized twin extract identical features (they hash and simulate
	// identically too).
	c := cfg
	if c.Floorplan.Node == 0 {
		c.Floorplan.Node = tech.Node14
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
	if c.SinkConductance == 0 {
		c.SinkConductance = thermal.SinkConductance
	}
	stackLayers := len(c.Stack)
	if stackLayers == 0 {
		stackLayers = len(thermal.DefaultStack())
	}
	cycles := c.CyclesPerStep
	if cycles == 0 {
		cycles = workload.TimestepCycles
	}
	icArea := c.Floorplan.ICAreaFactor
	if icArea == 0 {
		icArea = 1
	}

	fp, err := floorplan.New(c.Floorplan)
	if err != nil {
		return nil, err
	}
	if c.Core < 0 || c.Core >= floorplan.NumCores {
		return nil, fmt.Errorf("surrogate: core %d out of range", c.Core)
	}

	var f featureVec
	f.add("node_nm", float64(c.Floorplan.Node))
	f.add("die_w_mm", fp.Die.W)
	f.add("die_h_mm", fp.Die.H)
	f.add("die_area_mm2", fp.Die.Area())
	f.add("core_area_mm2", fp.CoreRects[c.Core].Area())
	f.add("units", float64(len(fp.Units)))
	f.add("ic_area_factor", icArea)
	f.add("resolution_mm", c.Resolution)
	f.add("ambient_c", c.Ambient)
	f.add("sink_conductance_w_per_k", c.SinkConductance)
	f.add("stack_layers", float64(stackLayers))

	f.add("steps", float64(c.Steps))
	f.add("steps_log2", math.Log2(float64(c.Steps)))
	f.add("core_index", float64(c.Core))
	f.add("warmup_idle", boolF(c.Warmup == sim.WarmupIdle))
	f.add("stop_at_hotspot", boolF(c.StopAtHotspot))
	f.add("use_cycle_model", boolF(c.UseCycleModel))
	f.add("leakage_off", boolF(c.DisableLeakageFeedback))
	f.add("fast_steady", boolF(c.FastSteady))

	f.add("temp_threshold_c", c.Definition.TempThreshold)
	f.add("mltd_threshold_c", c.Definition.MLTDThreshold)
	f.add("mltd_radius_mm", c.Definition.Radius)

	_, adi := c.Solver.(*thermal.ADI)
	// solver_implicit stays in the schema so fitted model files keep
	// loading; "implicit" now names the ADI solver, so it is always 0.
	f.add("solver_implicit", 0)
	f.add("solver_adi", boolF(adi))

	prof := c.Workload
	period := prof.PhasePeriod()
	meanI, minI, peakI := intensityStats(&prof, period)
	f.add("wl_intensity_nominal", prof.Intensity)
	f.add("wl_intensity_mean", meanI)
	f.add("wl_intensity_peak", peakI)
	f.add("wl_intensity_min", minI)
	f.add("wl_phase_period", float64(period))
	f.add("wl_peak_step_frac", float64(prof.PeakIntensityStep())/float64(period))
	mix := prof.Mix.Normalized()
	f.add("wl_mix_int_alu", mix.IntALU)
	f.add("wl_mix_calu", mix.CALU)
	f.add("wl_mix_fp", mix.FP)
	f.add("wl_mix_avx", mix.AVX)
	f.add("wl_mix_load", mix.Load)
	f.add("wl_mix_store", mix.Store)
	f.add("wl_mix_branch", mix.Branch)
	f.add("wl_ilp", prof.ILP)
	f.add("wl_branch_pred", prof.BranchPredictability)
	f.add("wl_working_set_log2", math.Log2(float64(prof.WorkingSet)))
	f.add("wl_stride_locality", prof.StrideLocality)
	f.add("wl_mlp", prof.MLP)
	f.add("wl_fp_suite", boolF(prof.FP))
	f.add("smt", boolF(c.SMTWorkload != nil))
	f.add("assignments", float64(len(c.Assignments)))

	stats, err := powerProbe(&c, fp, cycles, period)
	if err != nil {
		return nil, err
	}
	f.add("p_total_peak_w", stats.totalPeak)
	f.add("p_total_mean_w", stats.totalMean)
	f.add("p_core_peak_w", stats.corePeak)
	f.add("p_core_density_peak_w_mm2", stats.coreDensityPeak)
	f.add("p_unit_density_peak_w_mm2", stats.unitDensityPeak)
	f.add("act_unit_peak", stats.actPeak)
	f.add("act_unit_mean", stats.actMean)

	if len(f.names) != len(featureNames) {
		return nil, fmt.Errorf("surrogate: feature schema drift: emitted %d features, schema has %d", len(f.names), len(featureNames))
	}
	for i, name := range f.names {
		if name != featureNames[i] {
			return nil, fmt.Errorf("surrogate: feature schema drift at %d: emitted %q, schema says %q", i, name, featureNames[i])
		}
	}
	return f.vals, nil
}

// intensityStats summarizes the phase schedule's effective intensity
// over one full period (capped to bound degenerate schedules).
func intensityStats(prof *workload.Profile, period int) (mean, min, peak float64) {
	n := period
	if n > 4096 {
		n = 4096
	}
	sum := 0.0
	min, peak = math.Inf(1), 0
	for s := 0; s < n; s++ {
		in := prof.ParamsAt(s).Intensity
		sum += in
		if in < min {
			min = in
		}
		if in > peak {
			peak = in
		}
	}
	return sum / float64(n), min, peak
}

// powerStats are the activity/power summary features of one probe.
type powerStats struct {
	totalPeak, totalMean             float64
	corePeak                         float64
	coreDensityPeak, unitDensityPeak float64
	actPeak, actMean                 float64
}

// powerProbe samples the interval performance model over (up to) the
// first 16 steps of the phase schedule — plus the peak-intensity step if
// it lies beyond — and runs the power model on each sample, collecting
// peak/mean total power and the per-unit activity and power-density
// statistics at the hottest sample. One probe costs microseconds; it is
// the "per-unit activity/power statistics" half of the feature vector.
func powerProbe(c *sim.Config, fp *floorplan.Floorplan, cycles uint64, period int) (powerStats, error) {
	var st powerStats
	pm, err := power.NewModel(fp, tech.TurboPoint)
	if err != nil {
		return st, err
	}
	src, err := perf.NewIntervalModel(perf.DefaultConfig(), c.Workload)
	if err != nil {
		return st, err
	}
	n := period
	if n > 16 {
		n = 16
	}
	steps := make([]int, 0, n+1)
	for s := 0; s < n; s++ {
		steps = append(steps, s)
	}
	if ps := c.Workload.PeakIntensityStep(); ps >= n {
		steps = append(steps, ps)
	}

	idle := perf.IdleActivity(perf.DefaultConfig()).Unit
	floorFor := func(intensity float64) float64 {
		duty := math.Min(1, intensity/0.5)
		return power.IdleGateFloor + (power.ActiveGateFloor-power.IdleGateFloor)*duty
	}
	sum := 0.0
	for _, s := range steps {
		act := src.Step(s, cycles)
		var in power.Input
		for ci := 0; ci < floorplan.NumCores; ci++ {
			if ci == c.Core {
				in.CoreActivity[ci] = act.Unit
				in.CoreFloor[ci] = floorFor(c.Workload.ParamsAt(s).Intensity)
			} else {
				in.CoreActivity[ci] = idle
				in.CoreFloor[ci] = power.IdleGateFloor
			}
		}
		// Fixed warm-silicon leakage operating point: the probe predicts,
		// it does not integrate the thermal feedback loop.
		in.TempDefault = c.Ambient + 25
		pr := pm.Compute(in)
		tot := pr.TotalPower()
		sum += tot
		if tot > st.totalPeak {
			st.totalPeak = tot
			st.corePeak = pm.CorePower(pr, c.Core)
			st.coreDensityPeak = pm.PowerDensity(pr, c.Core)
			st.unitDensityPeak = 0
			for _, u := range fp.Units {
				if a := u.Rect.Area(); a > 0 {
					if d := pr.Total(u.Name) / a; d > st.unitDensityPeak {
						st.unitDensityPeak = d
					}
				}
			}
			st.actPeak, st.actMean = activityStats(act.Unit)
		}
	}
	st.totalMean = sum / float64(len(steps))
	return st, nil
}

// activityStats reduces a per-unit-kind activity map to (max, mean) in a
// key-sorted order, so the floating-point sums are bit-reproducible
// across map iteration orders.
func activityStats(unit map[floorplan.Kind]float64) (peak, mean float64) {
	if len(unit) == 0 {
		return 0, 0
	}
	kinds := make([]string, 0, len(unit))
	for k := range unit {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	sum := 0.0
	for _, k := range kinds {
		v := unit[floorplan.Kind(k)]
		sum += v
		if v > peak {
			peak = v
		}
	}
	return peak, sum / float64(len(kinds))
}
