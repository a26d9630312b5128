package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/mitigate"
	"hotgauge/internal/report"
	"hotgauge/internal/sim"
	"hotgauge/internal/stats"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
)

// The experiments in this file go beyond the paper's published evaluation,
// exercising the capabilities the paper positions as the point of the
// methodology: evaluating dynamic (architecture-level) mitigation, cooling
// solutions, and richer hotspot characterization.

// DTMResult compares dynamic thermal-management policies on a hot 7 nm
// workload — "ongoing work focused on mitigation" in the paper's words.
type DTMResult struct {
	Workload string
	Outcomes []*mitigate.Outcome
}

// DTM evaluates the reference policy set on namd at 7 nm.
func DTM(o Options) (*DTMResult, error) {
	steps := 150
	if o.Quick {
		steps = 60
	}
	cfg := o.baseConfig(tech.Node7, mustProfile("namd"), 0, sim.WarmupIdle, steps)
	outcomes, err := mitigate.Compare(cfg,
		mitigate.NoOp{},
		&mitigate.ThresholdThrottle{TripTemp: 90, ResumeTemp: 82, LowSpeed: 0.3},
		&mitigate.PIThrottle{Target: 90},
		&mitigate.MigrateCoolest{TripTemp: 85, Patience: 3, Cooldown: 15},
		&mitigate.Combined{
			Migrate:  &mitigate.MigrateCoolest{TripTemp: 85, Patience: 3, Cooldown: 15},
			Throttle: &mitigate.PIThrottle{Target: 90},
		},
	)
	if err != nil {
		return nil, err
	}
	return &DTMResult{Workload: "namd", Outcomes: outcomes}, nil
}

// String renders the DTM comparison.
func (r *DTMResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: dynamic thermal management on %s @7nm (sensors at fpIWin, 400us latency)\n", r.Workload)
	t := report.NewTable("policy", "peak T [C]", "sev RMS", "violations", "perf loss", "migrations")
	for _, o := range r.Outcomes {
		t.Row(o.Policy, fmt.Sprintf("%.1f", o.PeakTemp), fmt.Sprintf("%.3f", o.SevRMS),
			o.Violations, fmt.Sprintf("%.0f%%", o.PerfLossPct()), o.Migrations)
	}
	b.WriteString(t.String())
	b.WriteString("violations = steps at severity 1.0 (damage imminent)\n")
	return b.String()
}

// CoolingResult compares cooling solutions on the same workload.
type CoolingResult struct {
	Rows []CoolingRow
}

// CoolingRow is one cooling solution's outcome.
type CoolingRow struct {
	Name     string
	Psi      float64 // junction-to-ambient [°C/W]
	PeakTemp float64 // peak junction under namd @7nm [°C]
	SevRMS   float64
	TUH      float64 // [s]
}

// Cooling runs the §II physical-cooling comparison the paper's related
// work discusses: the calibrated air cooler, the same extrusion passive,
// and a liquid cold plate — showing that even strong conventional cooling
// leaves advanced (gradient-driven) hotspots behind.
func Cooling(o Options) (*CoolingResult, error) {
	steps := 100
	if o.Quick {
		steps = 40
	}
	fp, err := floorplan.New(floorplan.Config{Node: tech.Node7})
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name  string
		stack []thermal.Layer
		sinkG float64
	}{
		{"passive (fan off)", thermal.PassiveStack(), thermal.PassiveSinkConductance},
		{"HS483 + fan (default)", thermal.DefaultStack(), thermal.SinkConductance},
		{"liquid cold plate", thermal.LiquidCooledStack(), thermal.LiquidSinkConductance},
	}
	res := &CoolingResult{}
	for _, v := range variants {
		// Ψ for this stack.
		psiGrid, err := thermal.NewGrid(fp.Die, thermal.DefaultResolution, v.stack, v.sinkG, thermal.DefaultAmbient)
		if err != nil {
			return nil, err
		}
		psi, err := steadyPsi(psiGrid)
		if err != nil {
			return nil, err
		}

		cfg := o.baseConfig(tech.Node7, mustProfile("namd"), 0, sim.WarmupIdle, steps)
		cfg.Stack = v.stack
		cfg.SinkConductance = v.sinkG
		cfg.Record.Severity = true
		run, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		peak := 0.0
		for _, t := range run.MaxTemp {
			if t > peak {
				peak = t
			}
		}
		res.Rows = append(res.Rows, CoolingRow{
			Name: v.name, Psi: psi, PeakTemp: peak,
			SevRMS: stats.RMS(run.Severity), TUH: run.TUH,
		})
	}
	return res, nil
}

// steadyPsi computes Ψ for an arbitrary grid (uniform power).
func steadyPsi(g *thermal.Grid) (float64, error) {
	power := thermal.NewPower(uniformField(g, 20))
	s := g.NewState(thermal.DefaultAmbient)
	if _, err := thermal.WarmSteady(g, s, power, 1e-5); err != nil {
		return 0, err
	}
	return (g.MeanTemp(s) - thermal.DefaultAmbient) / 20, nil
}

// String renders the cooling comparison.
func (r *CoolingResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: cooling solutions vs advanced hotspots (namd @7nm)\n")
	t := report.NewTable("cooling", "Psi [C/W]", "peak T [C]", "sev RMS", "TUH [ms]")
	for _, row := range r.Rows {
		t.Row(row.Name, fmt.Sprintf("%.2f", row.Psi), fmt.Sprintf("%.1f", row.PeakTemp),
			fmt.Sprintf("%.3f", row.SevRMS), ms(row.TUH))
	}
	b.WriteString(t.String())
	b.WriteString("(the paper's premise: better heat removal lowers absolute temperature but the\n" +
		" gradient-driven MLTD term keeps severity high — cooling alone cannot fix hotspots)\n")
	return b.String()
}

// LifetimeResult characterizes hotspot lifetimes across the suite at 7 nm.
type LifetimeResult struct {
	Count     int
	Durations stats.Box // timesteps
	Travel    stats.Box // mm
	ByKind    map[floorplan.Kind]int
}

// Lifetimes tracks individual hotspots across frames for every suite
// workload, summarizing how long hotspots live and how far they move —
// the temporal dimension the paper leaves as future characterization.
func Lifetimes(o Options) (*LifetimeResult, error) {
	steps := 60
	if o.Quick {
		steps = 30
	}
	var cfgs []sim.Config
	for _, prof := range o.suite() {
		cfg := o.baseConfig(tech.Node7, prof, 0, sim.WarmupIdle, steps)
		cfg.Record.FieldEvery = 1
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.Campaign(cfgs)
	if err != nil {
		return nil, err
	}
	fp, err := floorplan.New(floorplan.Config{Node: tech.Node7})
	if err != nil {
		return nil, err
	}
	var durations, travel []float64
	byKind := map[floorplan.Kind]int{}
	count := 0
	for _, res := range results {
		if len(res.Fields) == 0 {
			continue
		}
		analyzer, err := core.NewAnalyzer(res.Fields[0], core.DefaultDefinition())
		if err != nil {
			return nil, err
		}
		tracker := core.NewTracker(analyzer, 0.5)
		for i, f := range res.Fields {
			tracker.Observe(res.FieldSteps[i], f)
		}
		for _, h := range tracker.Finish() {
			count++
			durations = append(durations, float64(h.Duration()))
			travel = append(travel, h.TravelMM)
			if u, ok := fp.UnitAt(h.X, h.Y); ok {
				byKind[u.Kind]++
			}
		}
	}
	return &LifetimeResult{
		Count: count, Durations: stats.BoxOf(durations),
		Travel: stats.BoxOf(travel), ByKind: byKind,
	}, nil
}

// String renders the lifetime summary.
func (r *LifetimeResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: hotspot lifetimes across the suite @7nm\n")
	fmt.Fprintf(&b, "tracked hotspots: %d\n", r.Count)
	fmt.Fprintf(&b, "duration [steps of 200us]: min %.0f, median %.0f, max %.0f\n",
		r.Durations.Min, r.Durations.Median, r.Durations.Max)
	fmt.Fprintf(&b, "travel [mm]: median %.2f, max %.2f\n", r.Travel.Median, r.Travel.Max)
	kinds := make([]floorplan.Kind, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool { return r.ByKind[kinds[a]] > r.ByKind[kinds[b]] })
	labels := make([]string, len(kinds))
	values := make([]float64, len(kinds))
	for i, k := range kinds {
		labels[i] = string(k)
		values[i] = float64(r.ByKind[k])
	}
	b.WriteString(report.Bars(labels, values, 40))
	return b.String()
}

// uniformField builds a uniform power field matching a grid.
func uniformField(g *thermal.Grid, total float64) *geometry.Field {
	f := geometry.NewField(g.NX, g.NY, g.Dx*1e3)
	per := total / float64(g.NX*g.NY)
	for i := range f.Data {
		f.Data[i] = per
	}
	return f
}

// FloorplanningRow is one placement variant's outcome.
type FloorplanningRow struct {
	Label    string
	SevRMS   float64
	PeakMLTD float64
}

// FloorplanningResult samples the placement design space.
type FloorplanningResult struct {
	Workload string
	Rows     []FloorplanningRow
}

// Floorplanning samples unit-placement variants (mirrored right column
// and row-shuffled cores) and compares hotspot severity — the
// temperature-aware-floorplanning mitigation axis the paper's
// introduction surveys, evaluated with HotGauge's severity metric.
func Floorplanning(o Options) (*FloorplanningResult, error) {
	steps := 60
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if o.Quick {
		steps = 30
		seeds = seeds[:3]
	}
	prof := mustProfile("gcc")
	type variant struct {
		label string
		fpc   floorplan.Config
	}
	variants := []variant{
		{"baseline", floorplan.Config{Node: tech.Node7}},
		{"mirrored right column", floorplan.Config{Node: tech.Node7, MirrorRight: true}},
	}
	for _, s := range seeds {
		variants = append(variants, variant{
			fmt.Sprintf("row shuffle #%d", s),
			floorplan.Config{Node: tech.Node7, RowShuffleSeed: s},
		})
	}
	var cfgs []sim.Config
	for _, v := range variants {
		cfg := o.baseConfig(tech.Node7, prof, 0, sim.WarmupIdle, steps)
		cfg.Floorplan = v.fpc
		cfg.Record.Severity = true
		cfg.Record.MLTD = true
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.Campaign(cfgs)
	if err != nil {
		return nil, err
	}
	out := &FloorplanningResult{Workload: prof.Name}
	for i, res := range results {
		peak := 0.0
		for _, m := range res.MLTD {
			if m > peak {
				peak = m
			}
		}
		out.Rows = append(out.Rows, FloorplanningRow{
			Label: variants[i].label, SevRMS: stats.RMS(res.Severity), PeakMLTD: peak,
		})
	}
	return out, nil
}

// Spread returns the severity-RMS range across placements.
func (r *FloorplanningResult) Spread() float64 {
	lo, hi := 2.0, -1.0
	for _, row := range r.Rows {
		if row.SevRMS < lo {
			lo = row.SevRMS
		}
		if row.SevRMS > hi {
			hi = row.SevRMS
		}
	}
	return hi - lo
}

// String renders the placement comparison.
func (r *FloorplanningResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: placement design space (%s @7nm) — temperature-aware floorplanning headroom\n", r.Workload)
	t := report.NewTable("placement", "sev RMS", "peak MLTD [C]")
	for _, row := range r.Rows {
		t.Row(row.Label, fmt.Sprintf("%.3f", row.SevRMS), fmt.Sprintf("%.1f", row.PeakMLTD))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "severity-RMS spread across placements: %.3f\n", r.Spread())
	return b.String()
}
