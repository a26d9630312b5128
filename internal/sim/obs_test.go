package sim

import (
	"errors"
	"testing"

	"hotgauge/internal/obs"
)

func TestRunRecordsMetrics(t *testing.T) {
	cfg := fastConfig(t, "gcc", 4)
	cfg.Record.FieldEvery = 2
	cfg.Obs = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Obs.Snapshot()

	if got := s.Counters[MetricRuns]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricRuns, got)
	}
	if got := s.Counters[MetricSteps]; got != int64(res.StepsRun) {
		t.Errorf("%s = %d, want %d", MetricSteps, got, res.StepsRun)
	}
	if got := s.Counters[MetricPerfSteps]; got != int64(res.StepsRun) {
		t.Errorf("%s = %d, want %d", MetricPerfSteps, got, res.StepsRun)
	}
	if got := s.Counters[MetricPerfInstructions]; got <= 0 {
		t.Errorf("%s = %d, want > 0", MetricPerfInstructions, got)
	}
	if got := s.Counters[MetricFrames]; got != int64(len(res.Fields)) {
		t.Errorf("%s = %d, want %d", MetricFrames, got, len(res.Fields))
	}
	// The explicit solver splits each 200 µs step into multiple stable
	// substeps, so substeps > steps and every step hits the bound.
	if sub := s.Counters[MetricThermalSubsteps]; sub <= int64(res.StepsRun) {
		t.Errorf("%s = %d, want > %d", MetricThermalSubsteps, sub, res.StepsRun)
	}
	if got := s.Counters[MetricThermalStability]; got != int64(res.StepsRun) {
		t.Errorf("%s = %d, want %d", MetricThermalStability, got, res.StepsRun)
	}

	for _, name := range []string{MetricStageSetup, MetricStagePerf, MetricStagePower, MetricStageThermal, MetricStageDetect, MetricStageRecord, MetricRunTime} {
		if _, ok := s.Timers[name]; !ok {
			t.Errorf("timer %s missing from snapshot", name)
		}
	}
	// Per-step stage timers fire once per executed step.
	if got := s.Timers[MetricStageThermal].Count; got != int64(res.StepsRun) {
		t.Errorf("thermal stage count = %d, want %d", got, res.StepsRun)
	}
	// The stage breakdown should account for most of the run's wall
	// time (everything outside the stages is loop scaffolding).
	var stageTotal float64
	for _, st := range s.Stages(StagePrefix) {
		stageTotal += st.Total.Seconds()
	}
	if run := s.Timers[MetricRunTime].TotalSeconds; stageTotal < 0.5*run || stageTotal > 1.05*run {
		t.Errorf("stage total %.6fs vs run total %.6fs: breakdown does not sum to ~total", stageTotal, run)
	}
}

func TestRunWithNilRegistryUnchanged(t *testing.T) {
	cfg := fastConfig(t, "gcc", 4)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	instr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.MaxTemp {
		if base.MaxTemp[i] != instr.MaxTemp[i] {
			t.Fatalf("instrumentation changed the physics at step %d", i)
		}
	}
}

func TestCampaignJoinsAllErrors(t *testing.T) {
	bad1 := fastConfig(t, "gcc", 4)
	bad1.Core = -1
	bad2 := fastConfig(t, "namd", 4)
	bad2.Steps = 0
	good := fastConfig(t, "gcc", 2)

	results, err := Campaign([]Config{bad1, good, bad2})
	if err == nil {
		t.Fatal("campaign swallowed errors")
	}
	// Both failures must be visible, not just the first.
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %v does not unwrap to a joined list", err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Fatalf("joined %d errors, want 2: %v", n, err)
	}
	if results[1] == nil {
		t.Fatal("successful run's result dropped on partial failure")
	}
	if results[0] != nil || results[2] != nil {
		t.Fatal("failed runs must have nil results")
	}
}

func TestCampaignOptsProgressAndAggregation(t *testing.T) {
	cfgs := []Config{fastConfig(t, "gcc", 2), fastConfig(t, "namd", 2), fastConfig(t, "milc", 2)}
	reg := obs.NewRegistry()
	var seen []Progress
	_, err := CampaignOpts(cfgs, CampaignOptions{
		Workers:    2,
		Obs:        reg,
		OnProgress: func(p Progress) { seen = append(seen, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("progress callbacks = %d, want %d", len(seen), len(cfgs))
	}
	last := seen[len(seen)-1]
	if last.Completed != 3 || last.Total != 3 || last.Failed != 0 {
		t.Fatalf("final progress = %+v", last)
	}
	if last.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", last.ETA)
	}
	for _, p := range seen[:len(seen)-1] {
		if p.ETA <= 0 {
			t.Fatalf("mid-campaign ETA not estimated: %+v", p)
		}
	}

	s := reg.Snapshot()
	if got := s.Counters[MetricRuns]; got != 3 {
		t.Errorf("aggregated %s = %d, want 3", MetricRuns, got)
	}
	if got := s.Counters["campaign/completed"]; got != 3 {
		t.Errorf("campaign/completed = %d, want 3", got)
	}
	if got := s.Gauges["campaign/progress"]; got != 1 {
		t.Errorf("campaign/progress = %g, want 1", got)
	}
}
