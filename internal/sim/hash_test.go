package sim

import (
	"strings"
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/perf"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

func mustHash(t *testing.T, cfg Config) string {
	t.Helper()
	h, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHashStableAcrossCalls(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Floorplan.KindScale = map[floorplan.Kind]float64{"fpIWin": 2, "RAT_INT": 1.5, "RAT_FP": 3}
	p, _ := workload.Lookup("namd")
	cfg.Assignments = map[int]workload.Profile{1: p, 3: p, 5: p}
	cfg.Record.UnitSeverity = []string{"core0.fpIWin"}
	want := mustHash(t, cfg)
	for i := 0; i < 25; i++ {
		if got := mustHash(t, cfg); got != want {
			t.Fatalf("hash unstable across calls: %s vs %s", got, want)
		}
	}
}

func TestHashSemanticEquality(t *testing.T) {
	base := fastConfig(t, "gcc", 5)

	explicit := base
	explicit.Floorplan.Node = tech.Node7
	explicit.Definition = core.DefaultDefinition()
	explicit.Resolution = 0.2
	explicit.Ambient = thermal.DefaultAmbient
	explicit.CyclesPerStep = workload.TimestepCycles
	explicit.Solver = &thermal.Explicit{}
	explicit.Stack = thermal.DefaultStack()
	explicit.SinkConductance = thermal.SinkConductance

	if got, want := mustHash(t, explicit), mustHash(t, base); got != want {
		t.Fatalf("explicit defaults hash %s != zero-value defaults hash %s", got, want)
	}

	// UnitSeverity request order only permutes map insertion, not the
	// recorded series.
	a, b := base, base
	a.Record.UnitSeverity = []string{"core0.fpIWin", "core1.fpIWin"}
	b.Record.UnitSeverity = []string{"core1.fpIWin", "core0.fpIWin"}
	if mustHash(t, a) != mustHash(t, b) {
		t.Fatal("UnitSeverity order changed the hash")
	}

	// Maps populated in different insertion orders hash equal.
	p, _ := workload.Lookup("namd")
	m1, m2 := base, base
	m1.Floorplan.KindScale = map[floorplan.Kind]float64{}
	m2.Floorplan.KindScale = map[floorplan.Kind]float64{}
	m1.Assignments = map[int]workload.Profile{}
	m2.Assignments = map[int]workload.Profile{}
	kinds := []floorplan.Kind{"fpIWin", "RAT_INT", "RAT_FP", "iIWin", "ROB"}
	for i, k := range kinds {
		m1.Floorplan.KindScale[k] = 1 + float64(i)
		m1.Assignments[i+1] = p
	}
	for i := len(kinds) - 1; i >= 0; i-- {
		m2.Floorplan.KindScale[kinds[i]] = 1 + float64(i)
		m2.Assignments[i+1] = p
	}
	if mustHash(t, m1) != mustHash(t, m2) {
		t.Fatal("map insertion order changed the hash")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := fastConfig(t, "gcc", 5)
	baseHash := mustHash(t, base)
	namd, _ := workload.Lookup("namd")

	tweaks := map[string]func(*Config){
		"steps":          func(c *Config) { c.Steps = 6 },
		"core":           func(c *Config) { c.Core = 2 },
		"node":           func(c *Config) { c.Floorplan.Node = tech.Node14 },
		"kind-scale":     func(c *Config) { c.Floorplan.KindScale = map[floorplan.Kind]float64{"fpIWin": 2} },
		"ic-area":        func(c *Config) { c.Floorplan.ICAreaFactor = 1.75 },
		"mirror":         func(c *Config) { c.Floorplan.MirrorRight = true },
		"shuffle-seed":   func(c *Config) { c.Floorplan.RowShuffleSeed = 7 },
		"workload":       func(c *Config) { c.Workload = namd },
		"smt":            func(c *Config) { c.SMTWorkload = &namd },
		"warmup":         func(c *Config) { c.Warmup = WarmupIdle },
		"stop":           func(c *Config) { c.StopAtHotspot = true },
		"temp-threshold": func(c *Config) { c.Definition = core.Definition{TempThreshold: 85, MLTDThreshold: 25, Radius: 1} },
		"resolution":     func(c *Config) { c.Resolution = 0.1 },
		"ambient":        func(c *Config) { c.Ambient = 45 },
		"cycle-model":    func(c *Config) { c.UseCycleModel = true },
		"cycles-step":    func(c *Config) { c.CyclesPerStep = 1000 },
		"solver-adi":     func(c *Config) { c.Solver = &thermal.ADI{} },
		"adi-errtol":     func(c *Config) { c.Solver = &thermal.ADI{ErrTol: 0.02} },
		"adi-maxsub":     func(c *Config) { c.Solver = &thermal.ADI{MaxSubsteps: 128} },
		"fast-steady":    func(c *Config) { c.FastSteady = true },
		"steady-after":   func(c *Config) { c.FastSteady = true; c.FastSteadyAfter = 10 },
		"steady-tol":     func(c *Config) { c.FastSteady = true; c.FastSteadyTol = 0.05 },
		"stack":          func(c *Config) { c.Stack = thermal.LiquidCooledStack() },
		"sink":           func(c *Config) { c.SinkConductance = 2 * thermal.SinkConductance },
		"leakage":        func(c *Config) { c.DisableLeakageFeedback = true },
		"record-mltd":    func(c *Config) { c.Record.MLTD = true },
		"record-frames":  func(c *Config) { c.Record.FieldEvery = 10 },
		"unit-severity":  func(c *Config) { c.Record.UnitSeverity = []string{"core0.fpIWin"} },
		"assignment":     func(c *Config) { c.Assignments = map[int]workload.Profile{1: namd} },
	}
	seen := map[string]string{"": baseHash}
	for name, tweak := range tweaks {
		cfg := base
		tweak(&cfg)
		h := mustHash(t, cfg)
		if prev, dup := seen[h]; dup {
			t.Errorf("tweak %q collides with %q (hash %s)", name, prev, h)
		}
		seen[h] = name
	}
	// ADI likewise: counters are instrumentation, the numeric knobs hash
	// with their documented defaults filled in.
	a1, a2 := base, base
	a1.Solver = &thermal.ADI{}
	a2.Solver = &thermal.ADI{ErrTol: 0.1, MaxSubsteps: 64}
	if mustHash(t, a1) != mustHash(t, a2) {
		t.Error("ADI zero-value and explicit defaults hash differently")
	}
	// Steady fast-path defaults: enabling with zero knobs and with the
	// documented defaults are the same run.
	f1, f2 := base, base
	f1.FastSteady = true
	f2.FastSteady = true
	f2.FastSteadyAfter = 5
	f2.FastSteadyTol = 1e-3
	if mustHash(t, f1) != mustHash(t, f2) {
		t.Error("FastSteady zero-value and explicit defaults hash differently")
	}
}

func TestHashRejectsOpaqueConfigs(t *testing.T) {
	src := fastConfig(t, "gcc", 3)
	rec := perf.Record(mustSource(t, src), 2, workload.TimestepCycles)
	replay, err := perf.NewReplaySource(rec)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(*Config){
		"source":     func(c *Config) { c.Source = replay },
		"controller": func(c *Config) { c.Controller = &cancelAfter{} },
		"invalid":    func(c *Config) { c.Steps = 0 },
		"solver":     func(c *Config) { c.Solver = &stubSolver{} },
	}
	for name, tweak := range cases {
		cfg := fastConfig(t, "gcc", 3)
		tweak(&cfg)
		if _, err := cfg.Hash(); err == nil {
			t.Errorf("%s: Hash() succeeded, want error", name)
		} else if name == "source" && !strings.Contains(err.Error(), "Source") {
			t.Errorf("source error %v does not mention Source", err)
		}
	}
}

type stubSolver struct{}

func (stubSolver) Step(*thermal.Grid, *thermal.State, *thermal.Power, float64) error { return nil }
func (stubSolver) Name() string                                                      { return "stub" }

func mustSource(t *testing.T, cfg Config) perf.Source {
	t.Helper()
	s, err := cfg.newSource()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
