// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the rows/series themselves are produced by
// cmd/hotgauge-experiments; these benchmarks exercise each experiment's
// computational kernel at reduced scale so `go test -bench=.` measures the
// whole reproduction pipeline), plus the design-choice ablations called
// out in DESIGN.md §4.
package hotgauge

import (
	"math"
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/mitigate"
	"hotgauge/internal/obs"
	"hotgauge/internal/perf"
	"hotgauge/internal/power"
	"hotgauge/internal/sim"
	"hotgauge/internal/stats"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// benchRun executes one short co-simulation; steps and resolution are
// chosen so an iteration stays in the tens of milliseconds.
func benchRun(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchConfig(node tech.Node, name string, steps int) sim.Config {
	prof, err := workload.Lookup(name)
	if err != nil {
		panic(err)
	}
	return sim.Config{
		Floorplan: floorplan.Config{Node: node},
		Workload:  prof,
		Steps:     steps,
	}
}

// ---- Tables ----

func BenchmarkTable3CdynValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := power.ValidateCdyn(tech.Node14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4PsiTDP(b *testing.B) {
	fp := floorplan.MustNew(floorplan.Config{Node: tech.Node7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.Psi(fp.Die, thermal.DefaultResolution); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures ----

func BenchmarkFig01HotspotSnapshot(b *testing.B) {
	cfg := benchConfig(tech.Node7, "gcc", 8)
	cfg.Warmup = sim.WarmupIdle
	for i := 0; i < b.N; i++ {
		res := benchRun(b, cfg)
		analyzer, err := core.NewAnalyzer(res.FinalField, core.DefaultDefinition())
		if err != nil {
			b.Fatal(err)
		}
		if analyzer.Detect(res.FinalField) == nil {
			b.Fatal("snapshot produced no hotspots")
		}
	}
}

func BenchmarkFig02DeltaDistribution(b *testing.B) {
	cfg := benchConfig(tech.Node7, "bzip2", 8)
	cfg.Record.CellDeltas = true
	for i := 0; i < b.N; i++ {
		res := benchRun(b, cfg)
		if res.DeltaHist.Total() == 0 {
			b.Fatal("no deltas recorded")
		}
	}
}

func BenchmarkFig07SeveritySurface(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for t := 40.0; t <= 130; t += 0.5 {
			for m := 0.0; m <= 60; m += 0.5 {
				sum += core.Severity(t, m)
			}
		}
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkFig08WarmupHistogram(b *testing.B) {
	cfg := benchConfig(tech.Node7, "gcc", 8)
	cfg.Warmup = sim.WarmupIdle
	cfg.Record.TempPercentiles = true
	for i := 0; i < b.N; i++ {
		benchRun(b, cfg)
	}
}

func BenchmarkFig09MLTD(b *testing.B) {
	cfg := benchConfig(tech.Node7, "gobmk", 8)
	cfg.Warmup = sim.WarmupIdle
	cfg.Record.MLTD = true
	for i := 0; i < b.N; i++ {
		benchRun(b, cfg)
	}
}

func BenchmarkFig10TUHTechScaling(b *testing.B) {
	c7 := benchConfig(tech.Node7, "gcc", 60)
	c7.Warmup, c7.StopAtHotspot = sim.WarmupIdle, true
	c14 := benchConfig(tech.Node14, "gcc", 60)
	c14.Warmup, c14.StopAtHotspot = sim.WarmupIdle, true
	for i := 0; i < b.N; i++ {
		r7 := benchRun(b, c7)
		r14 := benchRun(b, c14)
		if !(r7.TUH <= r14.TUH) {
			b.Fatalf("TUH ordering violated: 7nm %v vs 14nm %v", r7.TUH, r14.TUH)
		}
	}
}

func BenchmarkFig11TUHPerBenchmark(b *testing.B) {
	var cfgs []sim.Config
	for _, name := range []string{"hmmer", "gobmk"} {
		for _, c := range []int{0, 6} {
			cfg := benchConfig(tech.Node7, name, 40)
			cfg.Core = c
			cfg.StopAtHotspot = true
			cfgs = append(cfgs, cfg)
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Campaign(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12HotspotLocations(b *testing.B) {
	cfg := benchConfig(tech.Node7, "namd", 8)
	cfg.Warmup = sim.WarmupIdle
	cfg.Record.HotspotUnits = true
	for i := 0; i < b.N; i++ {
		res := benchRun(b, cfg)
		if len(res.HotspotUnit) == 0 {
			b.Fatal("no hotspot units")
		}
	}
}

func BenchmarkFig13UnitScaling(b *testing.B) {
	cfg := benchConfig(tech.Node7, "milc", 8)
	cfg.Warmup = sim.WarmupIdle
	cfg.Floorplan.KindScale = map[floorplan.Kind]float64{floorplan.KindFpIWin: 10}
	cfg.Record.Severity = true
	for i := 0; i < b.N; i++ {
		benchRun(b, cfg)
	}
}

func BenchmarkFig14RATScaling(b *testing.B) {
	cfg := benchConfig(tech.Node7, "gcc", 8)
	cfg.Warmup = sim.WarmupIdle
	cfg.Floorplan.KindScale = map[floorplan.Kind]float64{
		floorplan.KindRATInt: 10, floorplan.KindRATFp: 10,
	}
	cfg.Record.Severity = true
	for i := 0; i < b.N; i++ {
		benchRun(b, cfg)
	}
}

func BenchmarkSec5BICScaling(b *testing.B) {
	cfg := benchConfig(tech.Node7, "gcc", 8)
	cfg.Warmup = sim.WarmupIdle
	cfg.Floorplan.ICAreaFactor = 2.0
	cfg.Record.Severity = true
	for i := 0; i < b.N; i++ {
		benchRun(b, cfg)
	}
}

func BenchmarkSec2APowerDensity(b *testing.B) {
	fp := floorplan.MustNew(floorplan.Config{Node: tech.Node7})
	pm, err := power.NewModel(fp, tech.TurboPoint)
	if err != nil {
		b.Fatal(err)
	}
	prof, _ := workload.Lookup("bzip2")
	src, _ := perf.NewIntervalModel(perf.DefaultConfig(), prof)
	act := src.Step(0, workload.TimestepCycles)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var in power.Input
		in.CoreActivity[0] = act.Unit
		res := pm.Compute(in)
		if pm.PowerDensity(res, 0) < 4 {
			b.Fatal("density collapsed")
		}
	}
}

// BenchmarkSec4ATempScaling is the Section-4A end-to-end number the
// ROADMAP speedup targets quote: the same 15-step gcc co-simulation on
// the explicit stability-bounded solver and on the ADI fast solver
// (matched accuracy pinned by TestSolverAccuracyTable in
// internal/thermal).
func BenchmarkSec4ATempScaling(b *testing.B) {
	run := func(b *testing.B, solver thermal.Solver) {
		cfg := benchConfig(tech.Node7, "gcc", 15)
		cfg.Solver = solver
		for i := 0; i < b.N; i++ {
			benchRun(b, cfg)
		}
	}
	b.Run("explicit", func(b *testing.B) { run(b, nil) }) // default solver
	b.Run("adi", func(b *testing.B) { run(b, &thermal.ADI{}) })
}

// BenchmarkStackedRun measures the multi-die co-simulation end-to-end:
// two active planes, the DRAM power model driven by the core's memory
// traffic, and per-die series extraction — the stacked-scenario cost on
// top of the single-die baseline above.
func BenchmarkStackedRun(b *testing.B) {
	for _, preset := range sim.StackPresets() {
		b.Run(preset, func(b *testing.B) {
			cfg := benchConfig(tech.Node7, "gcc", 15)
			cfg.StackPreset = preset
			for i := 0; i < b.N; i++ {
				benchRun(b, cfg)
			}
		})
	}
}

// ---- Ablations (DESIGN.md §4) ----

func BenchmarkAblationSolvers(b *testing.B) {
	run := func(b *testing.B, solver thermal.Solver) {
		cfg := benchConfig(tech.Node7, "gcc", 8)
		cfg.Solver = solver
		for i := 0; i < b.N; i++ {
			benchRun(b, cfg)
		}
	}
	b.Run("explicit", func(b *testing.B) { run(b, &thermal.Explicit{}) })
	b.Run("implicit", func(b *testing.B) { run(b, &thermal.Implicit{}) })
	b.Run("adi", func(b *testing.B) { run(b, &thermal.ADI{}) })
}

func BenchmarkAblationPerfModels(b *testing.B) {
	prof, _ := workload.Lookup("gcc")
	b.Run("interval", func(b *testing.B) {
		m, err := perf.NewIntervalModel(perf.DefaultConfig(), prof)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			m.Step(i, workload.TimestepCycles)
		}
	})
	b.Run("cycle", func(b *testing.B) {
		m, err := perf.NewCycleModel(perf.DefaultConfig(), prof)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step(i, 100_000) // 1/10 of a timestep per iteration
		}
	})
}

func BenchmarkAblationDetection(b *testing.B) {
	// A realistic frame from an actual run, analyzed with both detectors.
	cfg := benchConfig(tech.Node7, "namd", 10)
	cfg.Warmup = sim.WarmupIdle
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	field := res.FinalField
	analyzer, err := core.NewAnalyzer(field, core.DefaultDefinition())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("candidates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(analyzer.Detect(field)) == 0 {
				b.Fatal("no hotspots")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(analyzer.DetectNaive(field)) == 0 {
				b.Fatal("no hotspots")
			}
		}
	})
}

func BenchmarkAblationLeakage(b *testing.B) {
	b.Run("feedback", func(b *testing.B) {
		cfg := benchConfig(tech.Node7, "namd", 8)
		for i := 0; i < b.N; i++ {
			benchRun(b, cfg)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		cfg := benchConfig(tech.Node7, "namd", 8)
		cfg.DisableLeakageFeedback = true
		for i := 0; i < b.N; i++ {
			benchRun(b, cfg)
		}
	})
}

func BenchmarkAblationResolution(b *testing.B) {
	for _, res := range []float64{0.1, 0.2} {
		b.Run(map[float64]string{0.1: "100um", 0.2: "200um"}[res], func(b *testing.B) {
			cfg := benchConfig(tech.Node7, "gcc", 8)
			cfg.Resolution = res
			for i := 0; i < b.N; i++ {
				benchRun(b, cfg)
			}
		})
	}
}

// ---- Kernel micro-benchmarks ----

func BenchmarkKernelThermalStep(b *testing.B) {
	fp := floorplan.MustNew(floorplan.Config{Node: tech.Node7})
	grid, err := thermal.NewGrid(fp.Die, 0.1, thermal.DefaultStack(), thermal.SinkConductance, 40)
	if err != nil {
		b.Fatal(err)
	}
	state := grid.NewState(40)
	pf := geometry.NewField(grid.NX, grid.NY, 0.1)
	pf.Rasterize(fp.CoreRects[0], 12)
	pw := thermal.NewPower(pf)
	var solver thermal.Explicit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solver.Step(grid, state, pw, sim.Timestep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelADIStep times one full ADI timestep (adaptive
// substepping at default ErrTol) on the same grid and power map as
// BenchmarkKernelThermalStep, so the two names compare directly.
func BenchmarkKernelADIStep(b *testing.B) {
	fp := floorplan.MustNew(floorplan.Config{Node: tech.Node7})
	grid, err := thermal.NewGrid(fp.Die, 0.1, thermal.DefaultStack(), thermal.SinkConductance, 40)
	if err != nil {
		b.Fatal(err)
	}
	state := grid.NewState(40)
	pf := geometry.NewField(grid.NX, grid.NY, 0.1)
	pf.Rasterize(fp.CoreRects[0], 12)
	pw := thermal.NewPower(pf)
	var solver thermal.ADI
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solver.Step(grid, state, pw, sim.Timestep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelMLTDField(b *testing.B) {
	f := geometry.NewField(46, 31, 0.1)
	for i := range f.Data {
		f.Data[i] = 60 + 40*math.Sin(float64(i)/17)
	}
	analyzer, err := core.NewAnalyzer(f, core.DefaultDefinition())
	if err != nil {
		b.Fatal(err)
	}
	analyzer.MaxMLTD(f) // warm the scan's scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.MaxMLTD(f)
	}
}

// sec4aFrame is the last junction frame of a 14 nm Section-4A run (gcc,
// idle warmup, 100 ADI steps): the frame shape and temperature profile
// the per-step analysis pass sees.
func sec4aFrame(b *testing.B) *geometry.Field {
	b.Helper()
	cfg := benchConfig(tech.Node14, "gcc", 100)
	cfg.Warmup = sim.WarmupIdle
	cfg.Solver = &thermal.ADI{}
	return benchRun(b, cfg).FinalField
}

// BenchmarkKernelAnalyzePass times the per-frame analysis pass of the
// record stage: one MLTD scan yielding the max-MLTD and peak-severity
// samples.
func BenchmarkKernelAnalyzePass(b *testing.B) {
	f := sec4aFrame(b)
	analyzer, err := core.NewAnalyzer(f, core.DefaultDefinition())
	if err != nil {
		b.Fatal(err)
	}
	analyzer.MaxMLTDSeverity(f) // warm the scan's scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.MaxMLTDSeverity(f)
	}
}

// BenchmarkKernelPercentiles times the record stage's per-frame
// temperature percentiles, selected into a reused buffer.
func BenchmarkKernelPercentiles(b *testing.B) {
	f := sec4aFrame(b)
	var sel stats.Selector
	var out [5]float64
	sel.Percentiles(out[:], f.Data, 5, 25, 50, 75, 95) // size the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Percentiles(out[:], f.Data, 5, 25, 50, 75, 95)
	}
}

func BenchmarkKernelCacheAccess(b *testing.B) {
	h, err := perf.NewHierarchy(perf.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	addr := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*1664525 + 1013904223
		h.Data(addr % (8 << 20))
	}
}

func BenchmarkKernelSeverityRMS(b *testing.B) {
	series := make([]float64, 1000)
	for i := range series {
		series[i] = core.Severity(60+float64(i%60), float64(i%40))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.RMS(series)
	}
}

// ---- Observability overhead (ISSUE 1 acceptance) ----

// BenchmarkObsOverhead measures the cost of full instrumentation on the
// sim.Run hot path. "baseline" runs with a nil registry (every metric
// call a nil-check no-op); "instrumented" records all stage timers and
// counters into a live registry. Compare with:
//
//	go test -bench=ObsOverhead -count=10 | benchstat
//
// The instrumented path must stay within 2% of baseline: per 200 µs
// timestep it adds ~6 timer spans (two clock reads each) and a handful
// of atomic adds against a multi-millisecond thermal solve.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry) {
		cfg := benchConfig(tech.Node7, "gcc", 8)
		cfg.Obs = reg
		for i := 0; i < b.N; i++ {
			benchRun(b, cfg)
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) {
		reg := obs.NewRegistry()
		run(b, reg)
		if reg.Counter("sim/steps").Value() == 0 {
			b.Fatal("instrumentation did not record")
		}
	})
}

// BenchmarkObsCampaignOverhead is the same comparison across a parallel
// campaign sharing one registry between workers — the contended case.
func BenchmarkObsCampaignOverhead(b *testing.B) {
	cfgs := func() []sim.Config {
		var out []sim.Config
		for _, name := range []string{"gcc", "namd", "milc", "hmmer"} {
			out = append(out, benchConfig(tech.Node7, name, 6))
		}
		return out
	}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Campaign(cfgs()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			if _, err := sim.CampaignOpts(cfgs(), sim.CampaignOptions{Obs: reg}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Registry micro-benchmarks: the per-event costs the <2% bound rests on.
func BenchmarkObsCounterAdd(b *testing.B) {
	c := obs.NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterAddNil(b *testing.B) {
	var c *obs.Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsTimerSpan(b *testing.B) {
	t := obs.NewRegistry().Timer("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Start().End()
	}
}

func BenchmarkObsTimerSpanNil(b *testing.B) {
	var t *obs.Timer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Start().End()
	}
}

// ---- Extension benchmarks ----

func BenchmarkExtensionDTMPolicy(b *testing.B) {
	cfg := benchConfig(tech.Node7, "namd", 10)
	cfg.Warmup = sim.WarmupIdle
	for i := 0; i < b.N; i++ {
		if _, err := mitigate.Evaluate(cfg, &mitigate.PIThrottle{Target: 90}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionCoolingVariant(b *testing.B) {
	cfg := benchConfig(tech.Node7, "namd", 8)
	cfg.Stack = thermal.LiquidCooledStack()
	cfg.SinkConductance = thermal.LiquidSinkConductance
	for i := 0; i < b.N; i++ {
		benchRun(b, cfg)
	}
}

func BenchmarkExtensionHotspotTracking(b *testing.B) {
	cfg := benchConfig(tech.Node7, "namd", 10)
	cfg.Warmup = sim.WarmupIdle
	cfg.Record.FieldEvery = 1
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	analyzer, err := core.NewAnalyzer(res.Fields[0], core.DefaultDefinition())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := core.NewTracker(analyzer, 0.5)
		for j, f := range res.Fields {
			tr.Observe(res.FieldSteps[j], f)
		}
		if len(tr.Finish()) == 0 {
			b.Fatal("nothing tracked")
		}
	}
}
