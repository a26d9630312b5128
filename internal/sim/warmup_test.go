package sim

import (
	"fmt"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/obs"
	"hotgauge/internal/power"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
)

// TestIdleWarmupMatchesColdSolve builds the idle warmup the way RunCtx
// does, on the 12 stock geometries (7/10/14 nm × the default stack and
// the three presets), and requires every cell of both the first warmup
// and a second, memo-served one to equal a cold WarmStart + SolveSteady
// at the warmup tolerance. The second warmup must count as reused.
func TestIdleWarmupMatchesColdSolve(t *testing.T) {
	for _, node := range []tech.Node{tech.Node7, tech.Node10, tech.Node14} {
		for _, preset := range append([]string{""}, StackPresets()...) {
			name := fmt.Sprintf("%v/%q", node, preset)
			cfg := fastConfig(t, "gcc", 1)
			cfg.Floorplan.Node, cfg.Resolution = node, 0
			cfg.Warmup, cfg.StackPreset = WarmupIdle, preset
			if err := cfg.normalize(); err != nil {
				t.Fatal(err)
			}
			fp, err := floorplan.New(cfg.Floorplan)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := power.NewModel(fp, tech.TurboPoint)
			if err != nil {
				t.Fatal(err)
			}
			grid, err := thermal.NewGrid(fp.Die, cfg.Resolution, cfg.Stack, cfg.SinkConductance, cfg.Ambient)
			if err != nil {
				t.Fatal(err)
			}
			stk, err := newStackRuntime(&cfg, fp, grid)
			if err != nil {
				t.Fatal(err)
			}
			raster := newRasterCache(fp.Units, grid.NX, grid.NY, cfg.Resolution,
				grid.ActiveLayerIndex(stk.corePlane)*grid.NX*grid.NY)

			reg := obs.NewRegistry()
			m := newRunMetrics(reg)
			first, err := m.initialState(cfg, pm, grid, raster, stk)
			if err != nil {
				t.Fatal(err)
			}
			second, err := m.initialState(cfg, pm, grid, raster, stk)
			if err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			if c[MetricWarmupReused] < 1 || c[MetricWarmupSolved]+c[MetricWarmupReused] != 2 {
				t.Fatalf("%s: %s = %d, %s = %d; want two warmups, the second reused", name,
					MetricWarmupSolved, c[MetricWarmupSolved], MetricWarmupReused, c[MetricWarmupReused])
			}

			// stk.pw still holds the idle frames the warmup solved.
			cold := grid.NewState(cfg.Ambient)
			if err := thermal.WarmStart(grid, cold, stk.pw); err != nil {
				t.Fatal(err)
			}
			if _, err := thermal.SolveSteady(grid, cold, stk.pw, 1e-4, 0); err != nil {
				t.Fatal(err)
			}
			for i, want := range cold.T {
				if first.T[i] != want || second.T[i] != want {
					t.Fatalf("%s: cell %d: warmups %.17g, %.17g; cold solve %.17g", name, i, first.T[i], second.T[i], want)
				}
			}
		}
	}
}

// TestWarmupCounters: a cold-start run counts no warmup; idle runs that
// share a geometry solve it at most once, whatever the workload.
func TestWarmupCounters(t *testing.T) {
	cold := fastConfig(t, "gcc", 2)
	cold.Obs = obs.NewRegistry()
	if _, err := Run(cold); err != nil {
		t.Fatal(err)
	}
	if c := cold.Obs.Snapshot().Counters; c[MetricWarmupSolved]+c[MetricWarmupReused] != 0 {
		t.Fatalf("cold start counted warmups: %v", c)
	}

	reg := obs.NewRegistry()
	for _, w := range []string{"gcc", "namd"} {
		cfg := fastConfig(t, w, 2)
		cfg.Warmup = WarmupIdle
		cfg.Obs = reg
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := reg.Snapshot().Counters
	if c[MetricWarmupSolved] > 1 || c[MetricWarmupSolved]+c[MetricWarmupReused] != 2 {
		t.Fatalf("%s = %d, %s = %d; want two warmups, at most one solved",
			MetricWarmupSolved, c[MetricWarmupSolved], MetricWarmupReused, c[MetricWarmupReused])
	}
}
