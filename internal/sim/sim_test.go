package sim

import (
	"math"
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/perf"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// fastConfig returns a quick-running 7 nm configuration: a coarser grid
// (0.2 mm) keeps the explicit solver ~16× faster than the campaign
// default while exercising identical code paths.
func fastConfig(t *testing.T, name string, steps int) Config {
	t.Helper()
	p, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Floorplan:  floorplan.Config{Node: tech.Node7},
		Workload:   p,
		Steps:      steps,
		Resolution: 0.2,
	}
}

func TestRunValidatesConfig(t *testing.T) {
	good := fastConfig(t, "gcc", 5)

	bad := good
	bad.Core = 9
	if _, err := Run(bad); err == nil {
		t.Error("core out of range accepted")
	}
	bad = good
	bad.Steps = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero steps accepted")
	}
	bad = good
	bad.Workload.ILP = 0
	if _, err := Run(bad); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestRunBasicSeries(t *testing.T) {
	cfg := fastConfig(t, "bzip2", 8)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 8 {
		t.Fatalf("StepsRun = %d", res.StepsRun)
	}
	if len(res.MaxTemp) != 8 || len(res.MeanTemp) != 8 || len(res.Power) != 8 || len(res.IPC) != 8 {
		t.Fatal("series lengths wrong")
	}
	for i := range res.MaxTemp {
		if res.MaxTemp[i] < res.MeanTemp[i] {
			t.Fatalf("step %d: max %v < mean %v", i, res.MaxTemp[i], res.MeanTemp[i])
		}
		if res.MeanTemp[i] < thermal.DefaultAmbient-1 {
			t.Fatalf("step %d: mean temp below ambient", i)
		}
		if res.Power[i] <= 0 || res.IPC[i] <= 0 {
			t.Fatalf("step %d: power %v, IPC %v", i, res.Power[i], res.IPC[i])
		}
	}
	if res.FinalField == nil {
		t.Fatal("no final field")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := fastConfig(t, "gcc", 6)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MaxTemp {
		if a.MaxTemp[i] != b.MaxTemp[i] || a.Power[i] != b.Power[i] {
			t.Fatalf("non-deterministic at step %d", i)
		}
	}
}

func TestIdleWarmupWarmerThanCold(t *testing.T) {
	cold := fastConfig(t, "gcc", 2)
	idle := cold
	idle.Warmup = WarmupIdle
	rc, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Run(idle)
	if err != nil {
		t.Fatal(err)
	}
	if ri.InitialTemp <= rc.InitialTemp+3 {
		t.Fatalf("idle warmup init %v not clearly above cold %v", ri.InitialTemp, rc.InitialTemp)
	}
	if rc.InitialTemp < thermal.DefaultAmbient-1e-6 || rc.InitialTemp > thermal.DefaultAmbient+1e-6 {
		t.Fatalf("cold init %v, want ambient", rc.InitialTemp)
	}
}

func TestStopAtHotspotTerminatesEarly(t *testing.T) {
	cfg := fastConfig(t, "namd", 100)
	cfg.Warmup = WarmupIdle
	cfg.StopAtHotspot = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.TUH, 1) {
		t.Fatal("namd at 7nm after idle warmup should hotspot quickly")
	}
	if res.StepsRun != res.TUHStep+1 {
		t.Fatalf("did not stop at hotspot: ran %d, TUH step %d", res.StepsRun, res.TUHStep)
	}
	if got := float64(res.TUHStep+1) * Timestep; got != res.TUH {
		t.Fatalf("TUH %v inconsistent with step %d", res.TUH, res.TUHStep)
	}
	if len(res.FirstHotspots) == 0 {
		t.Fatal("no first hotspots recorded")
	}
	// Result.Config is the caller's pristine config, so its zero
	// Definition would make this check vacuous — compare against the
	// defaults the run actually used.
	def := core.DefaultDefinition()
	for _, h := range res.FirstHotspots {
		if h.Temp <= def.TempThreshold || h.MLTD <= def.MLTDThreshold {
			t.Fatalf("recorded hotspot below thresholds: %+v", h)
		}
	}
}

func TestRecordOptions(t *testing.T) {
	cfg := fastConfig(t, "namd", 6)
	cfg.Record = RecordOptions{
		MLTD: true, Severity: true, CellDeltas: true,
		TempPercentiles: true, FieldEvery: 2, HotspotUnits: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MLTD) != 6 || len(res.Severity) != 6 || len(res.TempPcts) != 6 {
		t.Fatal("optional series not recorded")
	}
	for i := range res.Severity {
		if res.Severity[i] < 0 || res.Severity[i] > 1 {
			t.Fatalf("severity out of range: %v", res.Severity[i])
		}
		p := res.TempPcts[i]
		if !(p[0] <= p[1] && p[1] <= p[2] && p[2] <= p[3] && p[3] <= p[4]) {
			t.Fatalf("percentiles not ordered: %v", p)
		}
	}
	if len(res.Fields) != 3 || res.FieldSteps[1] != 2 {
		t.Fatalf("fields sampled wrongly: %d frames, steps %v", len(res.Fields), res.FieldSteps)
	}
	wantDeltas := res.Fields[0].NX * res.Fields[0].NY * 6
	if res.DeltaHist.Total() != wantDeltas {
		t.Fatalf("delta histogram has %d samples, want %d", res.DeltaHist.Total(), wantDeltas)
	}
}

func TestHotspotUnitAttribution(t *testing.T) {
	cfg := fastConfig(t, "namd", 20)
	cfg.Warmup = WarmupIdle
	cfg.Record.HotspotUnits = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HotspotUnit) == 0 {
		t.Fatal("no hotspot units attributed")
	}
	total := 0
	for k, n := range res.HotspotUnit {
		if n <= 0 {
			t.Fatalf("non-positive count for %s", k)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("zero total hotspot attributions")
	}
}

func TestSevRMS(t *testing.T) {
	cfg := fastConfig(t, "namd", 10)
	cfg.Warmup = WarmupIdle
	cfg.Record.Severity = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rms := res.SevRMS()
	if rms <= 0 || rms > 1 {
		t.Fatalf("SevRMS = %v", rms)
	}
}

func TestTechScalingTUHOrdering(t *testing.T) {
	// The headline result: TUH at 7 nm is shorter than at 14 nm.
	run := func(node tech.Node) float64 {
		cfg := fastConfig(t, "gobmk", 80)
		cfg.Floorplan.Node = node
		cfg.Warmup = WarmupIdle
		cfg.StopAtHotspot = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TUH
	}
	t7, t14 := run(tech.Node7), run(tech.Node14)
	if math.IsInf(t7, 1) {
		t.Fatal("no hotspot at 7nm")
	}
	if !(t7 < t14) {
		t.Fatalf("TUH(7nm)=%v not below TUH(14nm)=%v", t7, t14)
	}
}

func TestLeakageFeedbackRaisesPower(t *testing.T) {
	base := fastConfig(t, "namd", 15)
	base.Warmup = WarmupIdle
	on, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.DisableLeakageFeedback = true
	offRes, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	// With the die well above ambient, temperature-fed leakage must
	// exceed the ambient-frozen variant.
	last := len(on.Power) - 1
	if on.Power[last] <= offRes.Power[last] {
		t.Fatalf("feedback power %v not above frozen %v", on.Power[last], offRes.Power[last])
	}
}

func TestUnitScalingReducesSeverity(t *testing.T) {
	// §V-A: scaling the hot unit's area reduces peak severity.
	base := fastConfig(t, "namd", 15)
	base.Warmup = WarmupIdle
	base.Record.Severity = true
	scaled := base
	scaled.Floorplan.KindScale = map[floorplan.Kind]float64{
		floorplan.KindFpIWin: 10, floorplan.KindFpRF: 10,
	}
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SevRMS() >= rb.SevRMS() {
		t.Fatalf("scaled severity RMS %v not below baseline %v", rs.SevRMS(), rb.SevRMS())
	}
}

func TestCorePlacementMatters(t *testing.T) {
	tuh := func(core int) float64 {
		cfg := fastConfig(t, "gobmk", 60)
		cfg.Core = core
		cfg.Warmup = WarmupIdle
		cfg.StopAtHotspot = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TUH
	}
	// TUH is step-quantized, so compare a richer signal too: the max-temp
	// trajectory on a left-edge core vs a right-edge core must differ (the
	// die is asymmetric by construction).
	series := func(core int) []float64 {
		cfg := fastConfig(t, "gobmk", 10)
		cfg.Core = core
		cfg.Warmup = WarmupIdle
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxTemp
	}
	s0, s6 := series(0), series(6)
	diff := 0.0
	for i := range s0 {
		diff += math.Abs(s0[i] - s6[i])
	}
	if diff < 1e-9 {
		t.Fatalf("cores 0 and 6 thermally identical (TUH %v vs %v)", tuh(0), tuh(6))
	}
}

func TestCycleModelPathWorks(t *testing.T) {
	cfg := fastConfig(t, "hmmer", 3)
	cfg.UseCycleModel = true
	cfg.CyclesPerStep = 50_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 3 || res.IPC[0] <= 0 {
		t.Fatalf("cycle-model run broken: %+v", res.IPC)
	}
}

// TestImplicitSolverPathWorks: the "implicit" solver name is an alias
// for ADI, so a run built from it is an ADI run — same series bit for
// bit, same content address.
func TestImplicitSolverPathWorks(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	sv, err := thermal.NewSolver("implicit", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = sv
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adi := fastConfig(t, "gcc", 5)
	adi.Solver = &thermal.ADI{}
	want, err := Run(adi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.MaxTemp {
		if res.MaxTemp[i] != want.MaxTemp[i] {
			t.Fatalf("step %d: implicit %v != adi %v", i, res.MaxTemp[i], want.MaxTemp[i])
		}
	}
	if mustHash(t, cfg) != mustHash(t, adi) {
		t.Fatal("implicit and adi configs hash differently")
	}
}

func TestCampaignMatchesIndividualRuns(t *testing.T) {
	cfgs := []Config{fastConfig(t, "gcc", 4), fastConfig(t, "namd", 4)}
	batch, err := Campaign(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].MaxTemp[3] != solo.MaxTemp[3] {
			t.Fatalf("campaign result %d differs from solo run", i)
		}
	}
}

func TestCampaignReportsErrors(t *testing.T) {
	bad := fastConfig(t, "gcc", 4)
	bad.Core = -1
	if _, err := Campaign([]Config{fastConfig(t, "gcc", 2), bad}); err == nil {
		t.Fatal("campaign swallowed an error")
	}
}

func TestTimestepIs200Microseconds(t *testing.T) {
	if math.Abs(Timestep-200e-6) > 1e-12 {
		t.Fatalf("Timestep = %v, want 200 µs", Timestep)
	}
}

func TestWarmupModeString(t *testing.T) {
	if WarmupCold.String() != "cold" || WarmupIdle.String() != "idle" {
		t.Fatal("warmup mode strings wrong")
	}
}

func TestSMTWorkloadRaisesCorePower(t *testing.T) {
	solo := fastConfig(t, "bzip2", 8)
	rSolo, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	smt := fastConfig(t, "bzip2", 8)
	second, err := workload.Lookup("namd")
	if err != nil {
		t.Fatal(err)
	}
	smt.SMTWorkload = &second
	rSMT, err := Run(smt)
	if err != nil {
		t.Fatal(err)
	}
	last := rSolo.StepsRun - 1
	if rSMT.Power[last] <= rSolo.Power[last] {
		t.Fatalf("SMT power %.1f not above single-thread %.1f", rSMT.Power[last], rSolo.Power[last])
	}
	bad := fastConfig(t, "bzip2", 2)
	invalid := second
	invalid.ILP = 0
	bad.SMTWorkload = &invalid
	if _, err := Run(bad); err == nil {
		t.Fatal("invalid SMT workload accepted")
	}
}

func TestCoolingStackOverride(t *testing.T) {
	base := fastConfig(t, "namd", 12)
	base.Warmup = WarmupIdle
	liquid := base
	liquid.Stack = thermal.LiquidCooledStack()
	liquid.SinkConductance = thermal.LiquidSinkConductance
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(liquid)
	if err != nil {
		t.Fatal(err)
	}
	last := rb.StepsRun - 1
	if rl.MaxTemp[last] >= rb.MaxTemp[last] {
		t.Fatalf("liquid cooling max temp %.1f not below air %.1f", rl.MaxTemp[last], rb.MaxTemp[last])
	}
}

func TestReplaySourceDrivesSim(t *testing.T) {
	cfg := fastConfig(t, "gcc", 6)
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Record the same model's activity and replay it through the sim.
	src, err := perf.NewIntervalModel(perf.DefaultConfig(), cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	rec := perf.Record(src, 6, workload.TimestepCycles)
	rs, err := perf.NewReplaySource(rec)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Source = rs
	replayed, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.MaxTemp {
		if math.Abs(live.MaxTemp[i]-replayed.MaxTemp[i]) > 1e-9 {
			t.Fatalf("replayed run diverges at step %d: %v vs %v", i, live.MaxTemp[i], replayed.MaxTemp[i])
		}
	}
}

func TestLooserDefinitionNeverDelaysTUH(t *testing.T) {
	base := fastConfig(t, "gcc", 40)
	base.Warmup = WarmupIdle
	base.StopAtHotspot = true
	strict, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	loose := base
	loose.Definition.TempThreshold = 70
	loose.Definition.MLTDThreshold = 15
	loose.Definition.Radius = 1.0
	looseRes, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if looseRes.TUH > strict.TUH {
		t.Fatalf("looser thresholds gave later TUH: %v vs %v", looseRes.TUH, strict.TUH)
	}
}

func TestUnitSeverityRecording(t *testing.T) {
	cfg := fastConfig(t, "namd", 8)
	cfg.Warmup = WarmupIdle
	cfg.Record.Severity = true
	cfg.Record.UnitSeverity = []string{"core0.fpIWin", "core3.fpIWin"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	active := res.UnitSeverity["core0.fpIWin"]
	idle := res.UnitSeverity["core3.fpIWin"]
	if len(active) != 8 || len(idle) != 8 {
		t.Fatalf("series lengths %d/%d", len(active), len(idle))
	}
	last := 7
	if active[last] <= idle[last] {
		t.Fatalf("active core's fpIWin severity %.2f not above idle core's %.2f", active[last], idle[last])
	}
	// Unit-local severity can never exceed the die-wide peak.
	if active[last] > res.Severity[last]+1e-9 {
		t.Fatalf("unit severity %.3f exceeds die peak %.3f", active[last], res.Severity[last])
	}
	bad := cfg
	bad.Record.UnitSeverity = []string{"nope"}
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown unit name accepted")
	}
}

// referenceUnitSeverity is the per-cell loop unitSeverity ran before it
// went through the analysis pass: Severity(T, MLTDAt) at every cell of
// the unit's central region.
func referenceUnitSeverity(fp *floorplan.Floorplan, analyzer *core.Analyzer, field *geometry.Field, name string) float64 {
	u, ok := fp.Unit(name)
	if !ok {
		return 0
	}
	best := 0.0
	r := u.Rect.ScaledAbout(0.5)
	if r.W < field.Dx || r.H < field.Dx {
		r = u.Rect
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

// The unit-local severity of the mitigation experiment (Fig. 13): its two
// units on recorded 7 nm frames, the baseline and the fpIWin ×10 variant,
// against the per-cell loop, compared exactly; the recorded series must
// hold the same values at the recorded steps.
func TestUnitSeverityMatchesPerCellLoop(t *testing.T) {
	units := []string{"core0.fpIWin", "core0.fpRF"}
	for _, scale := range []map[floorplan.Kind]float64{nil, {floorplan.KindFpIWin: 10}} {
		p, err := workload.Lookup("gcc")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Floorplan: floorplan.Config{Node: tech.Node7, KindScale: scale},
			Workload:  p,
			Warmup:    WarmupIdle,
			Steps:     30,
			Solver:    &thermal.ADI{},
			Record:    RecordOptions{FieldEvery: 10, UnitSeverity: units},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := floorplan.New(cfg.Floorplan)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalyzer(res.Fields[0], core.DefaultDefinition())
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range res.Fields {
			for _, name := range units {
				want := referenceUnitSeverity(fp, a, f, name)
				if got := unitSeverity(fp, a, f, name); got != want {
					t.Fatalf("scale %v frame %d %s: unitSeverity %.17g != per-cell loop %.17g", scale, i, name, got, want)
				}
				if got := res.UnitSeverity[name][res.FieldSteps[i]]; got != want {
					t.Fatalf("scale %v frame %d %s: recorded %.17g != per-cell loop %.17g", scale, i, name, got, want)
				}
			}
		}
	}
}
