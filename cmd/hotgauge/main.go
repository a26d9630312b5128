// Command hotgauge runs one perf-power-therm co-simulation and reports
// the hotspot characterization: TUH, MLTD and severity series, the
// hottest units, and (optionally) on-disk artifacts — the junction
// temperature frames and CSV time series — for offline analysis with
// hotspot-detect.
//
// Examples:
//
//	hotgauge -workload gcc -node 7 -warmup idle -steps 100
//	hotgauge -workload namd -node 14 -core 3 -stop-at-hotspot
//	hotgauge -workload milc -node 7 -steps 50 -out out/
//	hotgauge -workload gcc -steps 50 -v -metrics-json metrics.json -pprof-cpu cpu.out
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/obs"
	"hotgauge/internal/perf"
	"hotgauge/internal/report"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
	"hotgauge/internal/store"
	"hotgauge/internal/surrogate"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/trace"
	"hotgauge/internal/workload"
)

// options carries every parsed flag of one invocation.
type options struct {
	workload    string
	node        int
	core        int
	warmup      string
	steps       int
	stop        bool
	cycleModel  bool
	scaleUnit   string
	icArea      float64
	tempTh      float64
	mltdTh      float64
	radius      float64
	solver      string
	solverTol   float64
	stack       string
	fastSteady  bool
	steadyTol   float64
	outDir      string
	heatmap     bool
	saveTrace   string
	replayTrace string
	metricsJSON string
	pprofCPU    string
	pprofMem    string
	verbose     bool

	surrogatePath string
	surrogateFit  string
	surrogateSeed int64
	dataDir       string
	triageBand    float64
	auditFrac     float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "gcc", "workload profile name (see -list)")
	list := flag.Bool("list", false, "list workload profiles and exit")
	flag.IntVar(&o.node, "node", 7, "process node in nm (14, 10 or 7)")
	flag.IntVar(&o.core, "core", 0, "core to pin the workload to (0-6)")
	flag.StringVar(&o.warmup, "warmup", "idle", "initial thermal state: cold or idle")
	flag.IntVar(&o.steps, "steps", 100, "timesteps to simulate (200 us each)")
	flag.BoolVar(&o.stop, "stop-at-hotspot", false, "stop at the first detected hotspot")
	flag.BoolVar(&o.cycleModel, "cycle-model", false, "use the cycle-level core model (slower)")
	flag.StringVar(&o.scaleUnit, "scale-unit", "", "mitigation floorplan, e.g. fpIWin=10 or RAT_INT=10,RAT_FP=10")
	flag.Float64Var(&o.icArea, "ic-area", 0, "uniform IC area factor (§V-B), e.g. 1.75")
	flag.Float64Var(&o.tempTh, "temp-threshold", 80, "hotspot temperature threshold [C]")
	flag.Float64Var(&o.mltdTh, "mltd-threshold", 25, "hotspot MLTD threshold [C]")
	flag.Float64Var(&o.radius, "radius", 1.0, "MLTD radius [mm]")
	flag.StringVar(&o.solver, "solver", "", "thermal solver: explicit (default) or adi (adaptive ADI, the campaign fast solver); implicit is an alias for adi")
	flag.Float64Var(&o.solverTol, "solver-tol", 0, "ADI per-step error budget [C], finite (0 = solver default; ignored for explicit)")
	flag.StringVar(&o.stack, "stack", "", "stacked-scenario preset: core-on-memory, memory-on-core or gpu-sm (empty = single die)")
	flag.BoolVar(&o.fastSteady, "fast-steady", false, "jump constant-power stretches straight to the steady-state solution instead of integrating the settling tail")
	flag.Float64Var(&o.steadyTol, "fast-steady-tol", 0, "relative per-step power delta below which frames count as steady for -fast-steady (0 = 1e-3)")
	flag.StringVar(&o.outDir, "out", "", "directory for CSV artifacts (series + frames)")
	flag.BoolVar(&o.heatmap, "heatmap", true, "print the final junction heatmap")
	showPlan := flag.Bool("floorplan", false, "print the floorplan map and exit")
	flag.StringVar(&o.saveTrace, "save-trace", "", "record the workload's activity trace to this CSV")
	flag.StringVar(&o.replayTrace, "replay-trace", "", "drive the simulation from a recorded activity trace instead of the performance model")
	flag.StringVar(&o.metricsJSON, "metrics-json", "", "write a JSON dump of the run's metrics registry to this file")
	flag.StringVar(&o.pprofCPU, "pprof-cpu", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.pprofMem, "pprof-mem", "", "write a heap profile after the run to this file")
	flag.BoolVar(&o.verbose, "v", false, "print the per-stage wall-time breakdown")
	flag.StringVar(&o.surrogatePath, "surrogate", "", "fitted surrogate model file: triage the run predict-first — simulate exactly only if the predicted severity is near the hotspot threshold, confidence is low, or the audit draw selects it")
	flag.StringVar(&o.surrogateFit, "surrogate-fit", "", "fit a surrogate model from the -data-dir result store, write it to this file and exit")
	flag.Int64Var(&o.surrogateSeed, "surrogate-seed", 0, "bootstrap seed for -surrogate-fit (0 = 1; same seed + same stored results = bit-identical model)")
	flag.StringVar(&o.dataDir, "data-dir", "", "hotgauged data directory holding the result store -surrogate-fit trains on")
	flag.Float64Var(&o.triageBand, "triage-band", 0, "guard band below the 0.5 severity threshold within which predicted runs are exact-verified anyway (0 = 0.1; requires -surrogate)")
	flag.Float64Var(&o.auditFrac, "audit-frac", 0, "fraction of confidently-skippable runs exact-verified regardless to measure prediction error (0 = 0.1; requires -surrogate)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workload.Names(), "\n"))
		return
	}
	if *showPlan {
		if err := printFloorplan(o.node, o.scaleUnit, o.icArea); err != nil {
			fmt.Fprintln(os.Stderr, "hotgauge:", err)
			os.Exit(1)
		}
		return
	}
	if o.surrogateFit != "" {
		if err := fitSurrogate(o); err != nil {
			fmt.Fprintln(os.Stderr, "hotgauge:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "hotgauge:", err)
		os.Exit(1)
	}
}

// fitSurrogate trains a surrogate model from a hotgauged result store
// and writes it to -surrogate-fit.
func fitSurrogate(o options) error {
	if o.dataDir == "" {
		return fmt.Errorf("-surrogate-fit requires -data-dir (a hotgauged data directory with stored results)")
	}
	rs, err := store.OpenResults(filepath.Join(o.dataDir, "results"))
	if err != nil {
		return err
	}
	model, n, err := serve.FitSurrogate(rs, surrogate.FitOptions{Seed: o.surrogateSeed})
	if err != nil {
		return err
	}
	if err := surrogate.Save(model, o.surrogateFit); err != nil {
		return err
	}
	fp, err := surrogate.Fingerprint(model)
	if err != nil {
		return err
	}
	fmt.Printf("surrogate model fitted on %d exact results (seed %d), written to %s\n",
		n, model.Seed, o.surrogateFit)
	fmt.Printf("fingerprint %s; %d features, %d ridge bags, k=%d\n",
		fp, len(model.Names), len(model.SevWeights), model.K)
	return nil
}

func run(o options) error {
	prof, err := workload.Lookup(o.workload)
	if err != nil {
		return err
	}
	kindScale, err := parseScale(o.scaleUnit)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Floorplan: floorplan.Config{Node: tech.Node(o.node), KindScale: kindScale, ICAreaFactor: o.icArea},
		Workload:  prof,
		Core:      o.core,
		Steps:     o.steps,
		Record: sim.RecordOptions{
			MLTD: true, Severity: true, TempPercentiles: true, HotspotUnits: true,
		},
		StopAtHotspot: o.stop,
		UseCycleModel: o.cycleModel,
		FastSteady:    o.fastSteady,
		FastSteadyTol: o.steadyTol,
		StackPreset:   o.stack,
	}
	solver, err := thermal.NewSolver(o.solver, o.solverTol)
	if err != nil {
		return err
	}
	cfg.Solver = solver
	cfg.Definition.TempThreshold = o.tempTh
	cfg.Definition.MLTDThreshold = o.mltdTh
	cfg.Definition.Radius = o.radius
	switch o.warmup {
	case "cold":
		cfg.Warmup = sim.WarmupCold
	case "idle":
		cfg.Warmup = sim.WarmupIdle
	default:
		return fmt.Errorf("unknown warmup mode %q (cold or idle)", o.warmup)
	}
	if o.metricsJSON != "" || o.verbose {
		cfg.Obs = obs.NewRegistry()
	}

	if o.pprofCPU != "" {
		stop, err := obs.StartCPUProfile(o.pprofCPU)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "hotgauge: cpu profile:", err)
			}
		}()
	}
	if o.pprofMem != "" {
		defer func() {
			if err := obs.WriteHeapProfile(o.pprofMem); err != nil {
				fmt.Fprintln(os.Stderr, "hotgauge: heap profile:", err)
			}
		}()
	}

	if o.replayTrace != "" {
		src, err := loadTrace(o.replayTrace)
		if err != nil {
			return err
		}
		cfg.Source = src
	}
	if o.saveTrace != "" {
		if err := recordTrace(cfg, o.saveTrace); err != nil {
			return err
		}
		fmt.Printf("activity trace recorded to %s\n", o.saveTrace)
	}

	var pred sim.Predictor
	if o.surrogatePath != "" {
		model, err := surrogate.Load(o.surrogatePath)
		if err != nil {
			return err
		}
		pred = model
	}
	return execute(o, cfg, pred)
}

// execute runs cfg and prints its report. With a non-nil pred the run is
// triaged predict-first, in the same sequence hotgauged follows: Score
// the config; a skip decision prints the predicted-only estimate (there
// are no series, so no heatmap or artifacts); any other decision runs
// the pipeline exactly, prints the plain report plus the
// predicted-vs-exact line, and scores audit picks into
// surrogate/audit_error.
func execute(o options, cfg sim.Config, pred sim.Predictor) error {
	var (
		tr *sim.Triager
		d  sim.TriageDecision
	)
	if pred != nil {
		cfg.Surrogate = true
		cfg.TriageBand = o.triageBand
		cfg.AuditFrac = o.auditFrac
		tr = sim.NewTriager(pred, cfg.Obs)
		d = tr.Score(cfg)
		if !d.ExactRun {
			printPredictedSummary(cfg, tr.PredictedResult(cfg, d))
			return writeMetrics(o.metricsJSON, cfg.Obs)
		}
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	printSummary(cfg, res)
	if d.Prediction != nil {
		exact := maxOf(res.Severity)
		fmt.Printf("surrogate: predicted severity %.3f vs exact %.3f (confidence %.2f)\n",
			d.Prediction.Severity, exact, d.Prediction.Confidence)
		tr.ObserveAudit(d, exact) // scores audit picks only
	}
	if o.heatmap {
		fmt.Println("\nfinal junction temperature map:")
		fmt.Print(report.Heatmap(res.FinalField))
	}
	if o.verbose {
		printStages(cfg.Obs)
	}
	if err := writeMetrics(o.metricsJSON, cfg.Obs); err != nil {
		return err
	}
	if o.outDir != "" {
		if err := writeArtifacts(o.outDir, res); err != nil {
			return err
		}
		fmt.Printf("\nartifacts written to %s\n", o.outDir)
	}
	return nil
}

// writeMetrics dumps reg as JSON to path (no-op when path is empty).
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	if err := obs.WriteMetricsJSON(path, reg); err != nil {
		return err
	}
	fmt.Printf("\nmetrics written to %s\n", path)
	return nil
}

// printPredictedSummary reports a predicted-only resolution: the model's
// estimate stands in for the exact series (which was never simulated).
func printPredictedSummary(cfg sim.Config, res *sim.Result) {
	p := res.Prediction
	fmt.Printf("hotgauge: %s on core %d @ %v — resolved by surrogate prediction, no exact simulation\n",
		cfg.Workload.Name, cfg.Core, cfg.Floorplan.Node)
	fmt.Printf("predicted peak severity: %.3f (confidence %.2f)\n", p.Severity, p.Confidence)
	if p.TUHSeconds >= 0 {
		fmt.Printf("predicted time-until-hotspot: %.2f ms\n", p.TUHSeconds*1e3)
	} else {
		fmt.Println("predicted time-until-hotspot: none within the simulated window")
	}
	fmt.Println("(the prediction sits clearly below the hotspot threshold; rerun without -surrogate for the exact series)")
}

// printStages renders the -v per-stage wall-time breakdown.
func printStages(reg *obs.Registry) {
	snap := reg.Snapshot()
	run := snap.Timers[sim.MetricRunTime]
	fmt.Println("\nstage breakdown:")
	fmt.Print(report.StageTable(snap.Stages(sim.StagePrefix), time.Duration(run.TotalSeconds*float64(time.Second))))
	fmt.Printf("thermal substeps: %d (%d stability-bound hits)\n",
		snap.Counters[sim.MetricThermalSubsteps], snap.Counters[sim.MetricThermalStability])
}

func parseScale(s string) (map[floorplan.Kind]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[floorplan.Kind]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -scale-unit entry %q (want kind=factor)", part)
		}
		var factor float64
		if _, err := fmt.Sscanf(kv[1], "%g", &factor); err != nil {
			return nil, fmt.Errorf("bad scale factor %q: %w", kv[1], err)
		}
		out[floorplan.Kind(kv[0])] = factor
	}
	return out, nil
}

func printSummary(cfg sim.Config, res *sim.Result) {
	n := res.StepsRun
	fmt.Printf("hotgauge: %s on core %d @ %v, %s warmup, %d steps (%.1f ms simulated)\n",
		cfg.Workload.Name, cfg.Core, cfg.Floorplan.Node, cfg.Warmup, n, float64(n)*sim.Timestep*1e3)
	fmt.Printf("initial die temperature: %.1f C\n", res.InitialTemp)

	if math.IsInf(res.TUH, 1) {
		fmt.Println("time-until-hotspot: none within the simulated window")
	} else {
		fmt.Printf("time-until-hotspot: %.2f ms (step %d)\n", res.TUH*1e3, res.TUHStep)
		for _, h := range res.FirstHotspots {
			fmt.Printf("  first hotspot at (%.2f, %.2f) mm: %.1f C, MLTD %.1f C\n", h.X, h.Y, h.Temp, h.MLTD)
		}
	}

	last := n - 1
	peakSev, peakMLTD := 0.0, 0.0
	for i := 0; i < n; i++ {
		peakSev = math.Max(peakSev, res.Severity[i])
		peakMLTD = math.Max(peakMLTD, res.MLTD[i])
	}
	t := report.NewTable("metric", "final", "peak")
	t.Row("max junction temp [C]", fmt.Sprintf("%.1f", res.MaxTemp[last]), fmt.Sprintf("%.1f", maxOf(res.MaxTemp)))
	t.Row("MLTD [C]", fmt.Sprintf("%.1f", res.MLTD[last]), fmt.Sprintf("%.1f", peakMLTD))
	t.Row("severity", fmt.Sprintf("%.2f", res.Severity[last]), fmt.Sprintf("%.2f", peakSev))
	t.Row("die power [W]", fmt.Sprintf("%.1f", res.Power[last]), fmt.Sprintf("%.1f", maxOf(res.Power)))
	t.Row("workload IPC", fmt.Sprintf("%.2f", res.IPC[last]), fmt.Sprintf("%.2f", maxOf(res.IPC)))
	fmt.Print(t.String())

	if len(res.DieLabels) > 0 {
		fmt.Println("per-die breakdown (bottom-up):")
		dt := report.NewTable("die", "final T [C]", "peak T [C]", "peak sev")
		for i, label := range res.DieLabels {
			sev := "-"
			if i < len(res.DieSeverity) && len(res.DieSeverity[i]) > 0 {
				sev = fmt.Sprintf("%.2f", maxOf(res.DieSeverity[i]))
			}
			dt.Row(label,
				fmt.Sprintf("%.1f", res.DieMaxTemp[i][last]),
				fmt.Sprintf("%.1f", maxOf(res.DieMaxTemp[i])), sev)
		}
		fmt.Print(dt.String())
		if len(res.MemPower) > 0 {
			fmt.Printf("memory-die power: %.2f W final, %.2f W peak\n",
				res.MemPower[last], maxOf(res.MemPower))
		}
	}

	if len(res.HotspotUnit) > 0 {
		type kc struct {
			k floorplan.Kind
			c int
		}
		var kinds []kc
		for k, c := range res.HotspotUnit {
			kinds = append(kinds, kc{k, c})
		}
		sort.Slice(kinds, func(a, b int) bool {
			if kinds[a].c != kinds[b].c {
				return kinds[a].c > kinds[b].c
			}
			return kinds[a].k < kinds[b].k // map order must not reach the output
		})
		fmt.Println("hotspot locations by unit kind:")
		for _, e := range kinds {
			fmt.Printf("  %-10s %d\n", e.k, e.c)
		}
	}
	fmt.Printf("severity trend: %s\n", report.Sparkline(report.Downsample(res.Severity, 60)))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		m = math.Max(m, v)
	}
	return m
}

func writeArtifacts(dir string, res *sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "series.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteSeries(f,
		[]string{"maxTemp", "meanTemp", "power", "ipc", "mltd", "severity"},
		res.MaxTemp, res.MeanTemp, res.Power, res.IPC, res.MLTD, res.Severity); err != nil {
		return err
	}
	ff, err := os.Create(filepath.Join(dir, "final_frame.csv"))
	if err != nil {
		return err
	}
	defer ff.Close()
	return trace.WriteField(ff, res.FinalField)
}

// loadTrace reads a recorded activity trace and wraps it as a source.
func loadTrace(path string) (*perf.ReplaySource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	acts, err := trace.ReadActivities(f)
	if err != nil {
		return nil, err
	}
	return perf.NewReplaySource(acts)
}

// recordTrace captures the configured workload's activity trace to a CSV.
func recordTrace(cfg sim.Config, path string) error {
	var src perf.Source
	var err error
	if cfg.UseCycleModel {
		src, err = perf.NewCycleModel(perf.DefaultConfig(), cfg.Workload)
	} else {
		src, err = perf.NewIntervalModel(perf.DefaultConfig(), cfg.Workload)
	}
	if err != nil {
		return err
	}
	rec := perf.Record(src, cfg.Steps, workload.TimestepCycles)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteActivities(f, rec)
}

// printFloorplan renders the selected floorplan variant as ASCII art.
func printFloorplan(node int, scaleStr string, icScale float64) error {
	kindScale, err := parseScale(scaleStr)
	if err != nil {
		return err
	}
	fp, err := floorplan.New(floorplan.Config{
		Node: tech.Node(node), KindScale: kindScale, ICAreaFactor: icScale,
	})
	if err != nil {
		return err
	}
	boxes := make([]report.UnitBox, len(fp.Units))
	for i, u := range fp.Units {
		label := string(u.Kind)
		boxes[i] = report.UnitBox{Label: label, X: u.Rect.X, Y: u.Rect.Y, W: u.Rect.W, H: u.Rect.H}
	}
	fmt.Printf("%v die: %.2f x %.2f mm, %d units\n", fp.Node, fp.Die.W, fp.Die.H, len(fp.Units))
	fmt.Print(report.FloorplanMap(boxes, fp.Die.W, fp.Die.H, fp.Die.W/100))
	return nil
}
