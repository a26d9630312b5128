package serve

import (
	"fmt"
	"math"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// ConfigSpec is the JSON wire form of one run: the subset of sim.Config
// a client can express, mirroring the hotgauge CLI flags. Zero values
// defer to the simulator's defaults (14 nm node, 0.1 mm grid, 40 °C
// ambient, the case-study hotspot definition). Stock solvers are
// selectable by name; opaque Go-level knobs — custom sources,
// controllers, hand-built Solver values — are deliberately not
// expressible: every spec is canonically hashable, which is what lets
// the result cache address it.
type ConfigSpec struct {
	// Workload is the profile name (see workload.Names), e.g. "gcc".
	Workload string `json:"workload"`
	// Node is the process node in nm: 7, 10 or 14 (0 = 14).
	Node int `json:"node,omitempty"`
	// Core pins the workload (0-6).
	Core int `json:"core,omitempty"`
	// Warmup is "idle" (default, the paper's warmup) or "cold".
	Warmup string `json:"warmup,omitempty"`
	// Steps is the number of 200 µs timesteps (required, > 0).
	Steps int `json:"steps"`
	// StopAtHotspot ends the run at the first detected hotspot.
	StopAtHotspot bool `json:"stop_at_hotspot,omitempty"`
	// Hotspot definition overrides (0 = the 80 °C / 25 °C / 1 mm
	// case-study values).
	TempThreshold float64 `json:"temp_threshold,omitempty"`
	MLTDThreshold float64 `json:"mltd_threshold,omitempty"`
	Radius        float64 `json:"radius,omitempty"`
	// Resolution is the thermal grid pitch [mm] (0 = 0.1).
	Resolution float64 `json:"resolution,omitempty"`
	// Ambient temperature [°C] (0 = 40).
	Ambient float64 `json:"ambient,omitempty"`
	// UseCycleModel selects the cycle-level core model (slower).
	UseCycleModel bool `json:"use_cycle_model,omitempty"`
	// ScaleUnit scales the area of the named unit kinds (the §V-A
	// mitigation study), e.g. {"fpIWin": 10}.
	ScaleUnit map[string]float64 `json:"scale_unit,omitempty"`
	// ICAreaFactor uniformly scales die area (§V-B).
	ICAreaFactor float64 `json:"ic_area_factor,omitempty"`
	// RecordMLTD / RecordSeverity / RecordHotspotUnits opt into the
	// per-step MLTD and severity series and per-unit hotspot counts.
	RecordMLTD         bool `json:"record_mltd,omitempty"`
	RecordSeverity     bool `json:"record_severity,omitempty"`
	RecordHotspotUnits bool `json:"record_hotspot_units,omitempty"`
	// Solver selects the thermal solver: "" or "explicit" (forward
	// Euler, the reference) or "adi" (the adaptive
	// alternating-direction-implicit fast solver). "implicit" is an alias
	// for "adi" and hashes to the same address. "" and "explicit" hash
	// identically. An unset solver inherits the daemon's -solver default
	// at submission.
	Solver string `json:"solver,omitempty"`
	// SolverTol is the ADI solver's per-step error budget [°C] (0 = the
	// documented default; ignored for explicit). It must be finite.
	SolverTol float64 `json:"solver_tol,omitempty"`
	// FastSteady opts into the steady-state fast path: constant-power
	// stretches jump straight to the steady-state solution instead of
	// integrating the settling tail (see sim.Config.FastSteady).
	// FastSteadyAfter is the arming frame count (0 = 5) and
	// FastSteadyTol the relative power-delta threshold (0 = 1e-3).
	FastSteady      bool    `json:"fast_steady,omitempty"`
	FastSteadyAfter int     `json:"fast_steady_after,omitempty"`
	FastSteadyTol   float64 `json:"fast_steady_tol,omitempty"`
	// Surrogate opts the run into predict-first triage when the daemon
	// holds a fitted surrogate model (see sim.Config.Surrogate). A nil
	// pointer inherits the daemon's -surrogate default at submission —
	// folded into the spec before hashing, like Solver — while an
	// explicit false pins exact execution. TriageBand and AuditFrac tune
	// the triage policy (0 = the daemon's defaults, then the package
	// defaults; negative disables).
	Surrogate  *bool   `json:"surrogate,omitempty"`
	TriageBand float64 `json:"triage_band,omitempty"`
	AuditFrac  float64 `json:"audit_frac,omitempty"`
	// Stack selects a stacked-scenario preset by name (sim.StackPresets:
	// "core-on-memory", "memory-on-core", "gpu-sm"); empty is the
	// single-die default. An unset stack inherits the daemon's -stack
	// default at submission, folded before hashing like Solver.
	Stack string `json:"stack,omitempty"`
	// Layers overrides the thermal layer stack directly (a custom
	// cooling solution or die stack); mutually exclusive with Stack.
	Layers []thermal.Layer `json:"layers,omitempty"`
}

// Config materializes the spec into a sim.Config.
func (s ConfigSpec) Config() (sim.Config, error) {
	prof, err := workload.Lookup(s.Workload)
	if err != nil {
		return sim.Config{}, err
	}
	switch s.Node {
	case 0, 7, 10, 14:
	default:
		return sim.Config{}, fmt.Errorf("serve: unknown node %d (want 7, 10 or 14)", s.Node)
	}
	cfg := sim.Config{
		Floorplan: floorplan.Config{
			Node:         tech.Node(s.Node),
			ICAreaFactor: s.ICAreaFactor,
		},
		Workload:      prof,
		Core:          s.Core,
		Steps:         s.Steps,
		StopAtHotspot: s.StopAtHotspot,
		Definition: core.Definition{
			TempThreshold: s.TempThreshold,
			MLTDThreshold: s.MLTDThreshold,
			Radius:        s.Radius,
		},
		Resolution:    s.Resolution,
		Ambient:       s.Ambient,
		UseCycleModel: s.UseCycleModel,
		Record: sim.RecordOptions{
			MLTD:         s.RecordMLTD,
			Severity:     s.RecordSeverity,
			HotspotUnits: s.RecordHotspotUnits,
		},
		FastSteady:      s.FastSteady,
		FastSteadyAfter: s.FastSteadyAfter,
		FastSteadyTol:   s.FastSteadyTol,
		Surrogate:       s.Surrogate != nil && *s.Surrogate,
		TriageBand:      s.TriageBand,
		AuditFrac:       s.AuditFrac,
		StackPreset:     s.Stack,
	}
	if len(s.Layers) > 0 {
		cfg.Stack = append([]thermal.Layer(nil), s.Layers...)
	}
	solver, err := thermal.NewSolver(s.Solver, s.SolverTol)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Solver = solver
	// An all-zero definition defers to the simulator's default; a
	// partial override fills its remaining zeros with the case-study
	// values so e.g. temp_threshold alone doesn't zero the MLTD gate.
	if cfg.Definition != (core.Definition{}) {
		def := core.DefaultDefinition()
		if cfg.Definition.TempThreshold == 0 {
			cfg.Definition.TempThreshold = def.TempThreshold
		}
		if cfg.Definition.MLTDThreshold == 0 {
			cfg.Definition.MLTDThreshold = def.MLTDThreshold
		}
		if cfg.Definition.Radius == 0 {
			cfg.Definition.Radius = def.Radius
		}
	}
	if len(s.ScaleUnit) > 0 {
		cfg.Floorplan.KindScale = map[floorplan.Kind]float64{}
		for k, v := range s.ScaleUnit {
			cfg.Floorplan.KindScale[floorplan.Kind(k)] = v
		}
	}
	switch s.Warmup {
	case "", "idle":
		cfg.Warmup = sim.WarmupIdle
	case "cold":
		cfg.Warmup = sim.WarmupCold
	default:
		return sim.Config{}, fmt.Errorf("serve: unknown warmup %q (cold or idle)", s.Warmup)
	}
	return cfg, nil
}

// HotspotView is the wire form of one detected hotspot.
type HotspotView struct {
	X    float64 `json:"x_mm"`
	Y    float64 `json:"y_mm"`
	Temp float64 `json:"temp_c"`
	MLTD float64 `json:"mltd_c"`
}

// RunView is the wire form of one run's result. It is marshaled exactly
// once per simulated run; the bytes are stored in the result cache and
// served verbatim, so repeated submissions return byte-identical bodies.
type RunView struct {
	Spec       ConfigSpec `json:"spec"`
	ConfigHash string     `json:"config_hash"`
	StepsRun   int        `json:"steps_run"`

	// TUHSeconds is nil when no hotspot occurred (TUHStep is then -1);
	// JSON has no +Inf.
	TUHSeconds *float64 `json:"tuh_seconds,omitempty"`
	TUHStep    int      `json:"tuh_step"`

	InitialTempC float64 `json:"initial_temp_c"`
	PeakTempC    float64 `json:"peak_temp_c"`
	FinalTempC   float64 `json:"final_temp_c"`
	PeakPowerW   float64 `json:"peak_power_w"`
	MeanIPC      float64 `json:"mean_ipc"`
	PeakMLTDC    float64 `json:"peak_mltd_c,omitempty"`
	PeakSeverity float64 `json:"peak_severity,omitempty"`

	MaxTempC  []float64 `json:"max_temp_c"`
	MeanTempC []float64 `json:"mean_temp_c"`
	PowerW    []float64 `json:"power_w"`
	IPC       []float64 `json:"ipc"`
	MLTDC     []float64 `json:"mltd_c,omitempty"`
	Severity  []float64 `json:"severity,omitempty"`

	HotspotUnits  map[string]int `json:"hotspot_units,omitempty"`
	FirstHotspots []HotspotView  `json:"first_hotspots,omitempty"`

	// Per-die series, present only on stacked runs (all omitempty, so
	// single-die payloads keep their exact legacy bytes). DieLabels names
	// the active planes bottom-up; DieMaxTempC/DieSeverity index by die
	// then step; MemPowerW is the memory die's power per step.
	DieLabels   []string    `json:"die_labels,omitempty"`
	DieMaxTempC [][]float64 `json:"die_max_temp_c,omitempty"`
	DieSeverity [][]float64 `json:"die_severity,omitempty"`
	MemPowerW   []float64   `json:"mem_power_w,omitempty"`

	// Predicted marks a run resolved by surrogate triage without exact
	// execution: the series above are empty and the predicted_* fields
	// carry the estimate. Exact results never emit these fields, so an
	// exact payload's bytes are identical with or without triage.
	Predicted           bool     `json:"predicted,omitempty"`
	PredictedSeverity   float64  `json:"predicted_severity,omitempty"`
	PredictedTUHSeconds *float64 `json:"predicted_tuh_seconds,omitempty"`
	PredictedConfidence float64  `json:"predicted_confidence,omitempty"`
}

// newRunView projects a sim.Result onto the wire form.
func newRunView(spec ConfigSpec, hash string, res *sim.Result) RunView {
	v := RunView{
		Spec:         spec,
		ConfigHash:   hash,
		StepsRun:     res.StepsRun,
		TUHStep:      res.TUHStep,
		InitialTempC: res.InitialTemp,
		PeakTempC:    seriesMax(res.MaxTemp),
		PeakPowerW:   seriesMax(res.Power),
		MeanIPC:      seriesMean(res.IPC),
		PeakMLTDC:    seriesMax(res.MLTD),
		PeakSeverity: seriesMax(res.Severity),
		MaxTempC:     res.MaxTemp,
		MeanTempC:    res.MeanTemp,
		PowerW:       res.Power,
		IPC:          res.IPC,
		MLTDC:        res.MLTD,
		Severity:     res.Severity,
	}
	if n := len(res.MaxTemp); n > 0 {
		v.FinalTempC = res.MaxTemp[n-1]
	}
	if !math.IsInf(res.TUH, 1) {
		tuh := res.TUH
		v.TUHSeconds = &tuh
	}
	if len(res.HotspotUnit) > 0 {
		v.HotspotUnits = map[string]int{}
		for kind, n := range res.HotspotUnit {
			v.HotspotUnits[string(kind)] = n
		}
	}
	for _, h := range res.FirstHotspots {
		v.FirstHotspots = append(v.FirstHotspots, HotspotView{X: h.X, Y: h.Y, Temp: h.Temp, MLTD: h.MLTD})
	}
	if len(res.DieLabels) > 0 {
		v.DieLabels = res.DieLabels
		v.DieMaxTempC = res.DieMaxTemp
		v.DieSeverity = res.DieSeverity
		v.MemPowerW = res.MemPower
	}
	if res.Predicted && res.Prediction != nil {
		v.Predicted = true
		v.PredictedSeverity = res.Prediction.Severity
		v.PredictedConfidence = res.Prediction.Confidence
		if t := res.Prediction.TUHSeconds; t >= 0 {
			tuh := t
			v.PredictedTUHSeconds = &tuh
		}
	}
	return v
}

func seriesMax(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func seriesMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
