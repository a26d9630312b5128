package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"

	"hotgauge/internal/cluster"
	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/obs"
	"hotgauge/internal/perf"
	"hotgauge/internal/power"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
	"hotgauge/internal/stats"
	"hotgauge/internal/store"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	wl "hotgauge/internal/workload"
)

// probeOps is how many leading configs of a sim workload the layer probe
// uses: one per node.
const probeOps = 3

// div is a/b, or 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumSnapshots adds counters and timer totals across registries (a
// cluster's coordinator and workers).
func sumSnapshots(snaps ...obs.Snapshot) obs.Snapshot {
	sum := obs.Snapshot{Counters: map[string]int64{}, Timers: map[string]obs.TimerSnapshot{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			sum.Counters[k] += v
		}
		for k, t := range s.Timers {
			a := sum.Timers[k]
			a.Count += t.Count
			a.TotalSeconds += t.TotalSeconds
			sum.Timers[k] = a
		}
	}
	return sum
}

// simLayers derives the sim and thermal metrics from the existing
// sim/stage/* timers and counters.
func simLayers(s obs.Snapshot, m map[string]float64) {
	steps := float64(s.Counters[sim.MetricSteps])
	perStep := func(timer string) float64 { return div(s.Timers[timer].TotalSeconds*1e6, steps) }
	m["sim.record_us_per_step"] = perStep(sim.MetricStageRecord)
	m["sim.thermal_us_per_step"] = perStep(sim.MetricStageThermal)
	m["sim.power_us_per_step"] = perStep(sim.MetricStagePower)
	m["sim.perf_us_per_step"] = perStep(sim.MetricStagePerf)
	m["sim.detect_us_per_step"] = perStep(sim.MetricStageDetect)
	setup := s.Timers[sim.MetricStageSetup]
	m["sim.setup_ms_per_run"] = div(setup.TotalSeconds*1e3, float64(setup.Count))
	m["sim.steps_per_run"] = div(steps, float64(s.Counters[sim.MetricRuns]))
	m["sim.detect_skip_ratio"] = div(float64(s.Counters[sim.MetricDetectSkipped]), steps)
	sub, saved := float64(s.Counters[sim.MetricThermalSubsteps]), float64(s.Counters[sim.MetricThermalADISaved])
	m["thermal.substeps_per_step"] = div(sub, steps)
	m["thermal.adi_saved_ratio"] = div(saved, saved+sub)
}

// serveLayers derives the daemon metrics: HTTP timings from the traced
// spans, queue wait and execution from the jobs' own timestamps, and the
// serve/* and cluster/* counters (all: every daemon; coord: the one that
// took the jobs).
func serveLayers(all, coord obs.Snapshot, tr *tracer, m map[string]float64) {
	m["serve.submit_ack_ms_p50"] = quantile(tr.durations("http.submit"), 0.5)
	m["serve.results_get_ms_p50"] = quantile(tr.durations("http.results"), 0.5)
	m["serve.queue_wait_ms_p50"] = quantile(tr.valuesOf("serve.queue_wait_ms"), 0.5)
	m["serve.exec_ms_p50"] = quantile(tr.valuesOf("serve.exec_ms"), 0.5)
	cached, executed := float64(all.Counters[serve.MetricRunsCached]), float64(all.Counters[serve.MetricRunsExecuted])
	m["serve.cache_hit_ratio"] = div(cached, cached+executed)
	m["serve.runs_executed"] = executed
	c := func(name string) float64 { return float64(coord.Counters[name]) }
	m["cluster.useful_dispatch_ratio"] = div(c(cluster.MetricResultsReceived), c(cluster.MetricRunsDispatched))
	m["cluster.runs_stolen"] = c(cluster.MetricRunsStolen)
	m["cluster.duplicate_results"] = c(cluster.MetricDuplicateResults)
	m["cluster.dispatch_errors"] = c(cluster.MetricDispatchErrors)
	m["cluster.batches_per_job"] = div(c(cluster.MetricBatchesDispatched), c(serve.MetricJobsSubmitted))
}

// probeLayers times single public calls into each layer on the
// workload's own inputs: its specs and configs, the junction frames its
// configs produce, and the result payloads it received.
func probeLayers(ctx context.Context, specs []serve.ConfigSpec, cfgs []sim.Config, payloads [][]byte, m map[string]float64) error {
	if len(payloads) == 0 {
		return errors.New("layer probe: no payloads")
	}
	var errs []error
	check := func(err error) {
		if err != nil && len(errs) < maxErrs {
			errs = append(errs, err)
		}
	}
	m["serve.spec_config_us"] = timeCalls(len(specs), func(i int) { _, err := specs[i].Config(); check(err) })
	m["sim.hash_us"] = timeCalls(len(cfgs), func(i int) { _, err := cfgs[i].Hash(); check(err) })

	frames, analyzers, err := probeFrames(ctx, cfgs)
	if err != nil {
		return err
	}
	m["core.max_mltd_us"] = timeCalls(len(frames), func(i int) { analyzers[i].MaxMLTD(frames[i]) })
	m["core.max_severity_us"] = timeCalls(len(frames), func(i int) { analyzers[i].MaxSeverity(frames[i]) })
	m["core.detect_us"] = timeCalls(len(frames), func(i int) { analyzers[i].Detect(frames[i]) })
	m["stats.percentiles_us"] = timeCalls(len(frames), func(i int) { stats.Percentiles(frames[i].Data, 5, 25, 50, 75, 95) })

	if err := probePowerThermal(cfgs, m); err != nil {
		return err
	}

	sealed := make([]sim.RemoteResult, len(payloads))
	keys := make([]string, len(payloads))
	for i, p := range payloads {
		sum := sha256.Sum256(p)
		keys[i] = hex.EncodeToString(sum[:])
		sealed[i] = sim.RemoteResult{Job: "job-000001", Index: i, Hash: keys[i], Payload: p, Epoch: 1}.Sealed()
		check(sealed[i].CheckIntegrity())
	}
	m["sim.envelope_seal_us"] = timeCalls(len(payloads), func(i int) { sealed[i] = sealed[i].Sealed() })
	m["sim.envelope_verify_us"] = timeCalls(len(payloads), func(i int) { check(sealed[i].CheckIntegrity()) })

	dir, err := os.MkdirTemp("", "hotgauge-bench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rs, err := store.OpenResults(dir + "/results")
	if err != nil {
		return err
	}
	m["store.result_put_us"] = timeCalls(len(payloads), func(i int) { check(rs.Put(keys[i], payloads[i])) })
	m["store.result_get_us"] = timeCalls(len(payloads), func(i int) { _, _, err := rs.Get(keys[i]); check(err) })

	// The daemon journals a job's submission (its specs) and small
	// per-run state records; those are the record sizes appended here.
	body, err := campaignBody(specs)
	if err != nil {
		return err
	}
	records := [][]byte{body, []byte(`{"type":"run","job":"job-000001","run":0,"state":"done"}`)}
	for _, pol := range []store.SyncPolicy{store.SyncAlways, store.SyncInterval, store.SyncNever} {
		j, err := store.OpenJournal(store.JournalOptions{Dir: dir + "/journal-" + string(pol), Sync: pol})
		if err != nil {
			return err
		}
		m["store.journal_append_us."+string(pol)] = timeCalls(len(records), func(i int) { check(j.Append(records[i])) })
		check(j.Close())
	}
	return errors.Join(errs...)
}

// probeFrames runs the configs once more with every junction frame kept
// and returns the frames with an analyzer for each.
func probeFrames(ctx context.Context, cfgs []sim.Config) ([]*geometry.Field, []*core.Analyzer, error) {
	var frames []*geometry.Field
	var analyzers []*core.Analyzer
	for _, cfg := range cfgs {
		cfg.Obs = nil
		cfg.Record.FieldEvery = 1
		res, err := sim.RunCtx(ctx, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("frame probe: %w", err)
		}
		def := cfg.Definition
		if def == (core.Definition{}) {
			def = core.DefaultDefinition()
		}
		a, err := core.NewAnalyzer(res.Fields[0], def)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range res.Fields {
			frames = append(frames, f)
			analyzers = append(analyzers, a)
		}
	}
	return frames, analyzers, nil
}

// presetStacks maps the stacked presets to their layer stacks.
var presetStacks = map[string]func() []thermal.Layer{
	sim.StackCoreOnMemory: thermal.CoreOnMemoryStack,
	sim.StackMemoryOnCore: thermal.MemoryOnCoreStack,
	sim.StackGPUSM:        thermal.GPUSMStack,
}

// probePowerThermal times the power model on each config's floorplan and
// workload activity, the DRAM model on a memory die of the same outline,
// and the steady-state solve of the idle warmup on each config's grid
// (the idle power map on every active plane).
func probePowerThermal(cfgs []sim.Config, m map[string]float64) error {
	var models []*power.Model
	var inputs []power.Input
	var drams []*power.DRAMModel
	type steadyCase struct {
		grid  *thermal.Grid
		state *thermal.State
		pw    *thermal.Power
	}
	var cases []steadyCase
	idle := perf.IdleActivity(perf.DefaultConfig()).Unit
	for _, cfg := range cfgs {
		fp, err := floorplan.New(cfg.Floorplan)
		if err != nil {
			return err
		}
		pm, err := power.NewModel(fp, tech.TurboPoint)
		if err != nil {
			return err
		}
		src, err := perf.NewIntervalModel(perf.DefaultConfig(), cfg.Workload)
		if err != nil {
			return err
		}
		var in, idleIn power.Input
		for c := range in.CoreActivity {
			in.CoreActivity[c], idleIn.CoreActivity[c] = idle, idle
			idleIn.CoreFloor[c] = power.IdleGateFloor
		}
		in.CoreActivity[cfg.Core] = src.Step(0, wl.TimestepCycles).Unit
		models, inputs = append(models, pm), append(inputs, in)

		plan, err := floorplan.NewMemoryPlan(fp.Die, 0)
		if err != nil {
			return err
		}
		dm, err := power.NewDRAMModel(plan, power.DefaultDRAMParams())
		if err != nil {
			return err
		}
		drams = append(drams, dm)

		stack := thermal.DefaultStack()
		if cfg.StackPreset != "" {
			mk, ok := presetStacks[cfg.StackPreset]
			if !ok {
				return fmt.Errorf("layer probe: unknown stack preset %q", cfg.StackPreset)
			}
			stack = mk()
		}
		res := thermal.DefaultResolution
		grid, err := thermal.NewGrid(fp.Die, res, stack, thermal.SinkConductance, thermal.DefaultAmbient)
		if err != nil {
			return err
		}
		pr := pm.Compute(idleIn)
		frames := make([]*geometry.Field, grid.ActiveLayers())
		for i := range frames {
			frames[i] = geometry.NewField(grid.NX, grid.NY, res)
			for _, u := range fp.Units {
				frames[i].Rasterize(u.Rect, pr.Total(u.Name))
			}
		}
		cases = append(cases, steadyCase{grid, grid.NewState(thermal.DefaultAmbient), thermal.NewPower(frames...)})
	}
	m["power.compute_us"] = timeCalls(len(models), func(i int) { models[i].Compute(inputs[i]) })
	rates := power.AccessRatesFor(1e9, 2.0/3, sim.DefaultRowHitRate)
	rates.RefreshDuty = power.BaseRefreshDuty
	m["power.dram_compute_us"] = timeCalls(len(drams), func(i int) { drams[i].Compute(rates) })
	var solveErr error
	m["thermal.steady_solve_ms"] = timeCalls(len(cases), func(i int) {
		c := cases[i]
		err := thermal.WarmStart(c.grid, c.state, c.pw)
		if err == nil {
			_, err = thermal.SolveSteady(c.grid, c.state, c.pw, 1e-4, 0)
		}
		if err != nil {
			solveErr = err
		}
	}) / 1e3
	return solveErr
}
