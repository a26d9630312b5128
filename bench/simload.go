package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/obs"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
)

// simInstance drives sim.RunCtx directly: one operation is one run.
type simInstance struct {
	seed    uint64
	config  func(seed uint64, i int) (sim.Config, error)
	spec    func(seed uint64, i int) serve.ConfigSpec
	stacked bool
	// reg receives the sim/* metrics of the traced phase only: the
	// untraced phase runs with a nil registry, as a library caller would.
	reg *obs.Registry
}

func newSimInstance(ctx context.Context, seed uint64,
	config func(uint64, int) (sim.Config, error), spec func(uint64, int) serve.ConfigSpec, stacked bool) (instance, error) {
	s := &simInstance{seed: seed, config: config, spec: spec, stacked: stacked, reg: obs.NewRegistry()}
	cfg, err := config(warmupSeed, 0)
	if err == nil {
		_, err = s.run(ctx, cfg, -1, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *simInstance) do(ctx context.Context, _, i int, tr *tracer) (opResult, error) {
	cfg, err := s.config(s.seed, i)
	if err != nil {
		return opResult{}, err
	}
	return s.run(ctx, cfg, i, tr)
}

func (s *simInstance) run(ctx context.Context, cfg sim.Config, i int, tr *tracer) (opResult, error) {
	if tr != nil {
		cfg.Obs = s.reg
	}
	sp := tr.start("sim.RunCtx", 0, i)
	t0 := time.Now()
	res, err := sim.RunCtx(ctx, cfg)
	lat := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	out, err := checkSim(cfg, res, s.stacked)
	return opResult{lat: lat, runs: 1, outs: map[int][]byte{i: out}}, err
}

// simOutput is the canonical form of a run's outputs: every series its
// config records. TUH is carried as its step index (JSON has no +Inf).
type simOutput struct {
	StepsRun    int                    `json:"steps_run"`
	TUHStep     int                    `json:"tuh_step"`
	MaxTemp     []float64              `json:"max_temp"`
	MeanTemp    []float64              `json:"mean_temp"`
	Power       []float64              `json:"power"`
	IPC         []float64              `json:"ipc"`
	MLTD        []float64              `json:"mltd,omitempty"`
	Severity    []float64              `json:"severity,omitempty"`
	TempPcts    [][5]float64           `json:"temp_pcts,omitempty"`
	HotspotUnit map[floorplan.Kind]int `json:"hotspot_unit,omitempty"`
	DieLabels   []string               `json:"die_labels,omitempty"`
	DieMaxTemp  [][]float64            `json:"die_max_temp,omitempty"`
	DieSeverity [][]float64            `json:"die_severity,omitempty"`
	MemPower    []float64              `json:"mem_power,omitempty"`
}

// checkSim checks a run's outputs against its config and returns their
// canonical bytes. Encoding fails on any non-finite value, which is the
// finiteness check.
func checkSim(cfg sim.Config, r *sim.Result, stacked bool) ([]byte, error) {
	n := r.StepsRun
	switch {
	case n <= 0:
		return nil, fmt.Errorf("run executed %d steps", n)
	case !cfg.StopAtHotspot && n != cfg.Steps:
		return nil, fmt.Errorf("run executed %d of %d steps", n, cfg.Steps)
	case len(r.MaxTemp) != n || len(r.MeanTemp) != n || len(r.Power) != n || len(r.IPC) != n:
		return nil, fmt.Errorf("per-step series do not cover the %d steps run", n)
	case cfg.Record.MLTD && len(r.MLTD) != n,
		cfg.Record.Severity && len(r.Severity) != n,
		cfg.Record.TempPercentiles && len(r.TempPcts) != n:
		return nil, fmt.Errorf("recorded series do not cover the %d steps run", n)
	case stacked && len(r.DieLabels) != 2:
		return nil, fmt.Errorf("stacked run has %d die labels, want 2", len(r.DieLabels))
	}
	out, err := json.Marshal(simOutput{
		StepsRun: n, TUHStep: r.TUHStep,
		MaxTemp: r.MaxTemp, MeanTemp: r.MeanTemp, Power: r.Power, IPC: r.IPC,
		MLTD: r.MLTD, Severity: r.Severity, TempPcts: r.TempPcts, HotspotUnit: r.HotspotUnit,
		DieLabels: r.DieLabels, DieMaxTemp: r.DieMaxTemp, DieSeverity: r.DieSeverity, MemPower: r.MemPower,
	})
	if err != nil {
		return nil, fmt.Errorf("non-finite output: %w", err)
	}
	return out, nil
}

func (s *simInstance) verify(context.Context, map[int][]byte) error { return nil }

// layers reads the traced phase's sim/* metrics, then probes the layers
// this workload does not pass through with its own first configs: the
// daemon (one job, submitted twice), the wire envelope and the store.
func (s *simInstance) layers(ctx context.Context, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	simLayers(s.reg.Snapshot(), m)
	specs := make([]serve.ConfigSpec, probeOps)
	cfgs := make([]sim.Config, probeOps)
	for i := range specs {
		specs[i] = s.spec(s.seed, i)
		cfg, err := s.config(s.seed, i)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	payloads, err := serveProbe(ctx, specs, tr, m)
	if err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	if err := probeLayers(ctx, specs, cfgs, payloads, m); err != nil {
		return nil, err
	}
	return m, nil
}

func (s *simInstance) close() error { return nil }
