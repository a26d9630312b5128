package core_test

import (
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// The pruning guard: on the Section-4A frames of pass_frames_test.go,
// each view of the analysis pass evaluates the exact disk minimum at no
// more than 5% of the cells (the worst measured is 1.4%), so a bound
// that silently stops pruning fails here, not only in a benchmark.
func TestAnalyzePassPrunesSec4AFrames(t *testing.T) {
	for _, node := range []tech.Node{tech.Node7, tech.Node10, tech.Node14} {
		for _, name := range []string{"gcc", "lbm", "namd"} {
			p, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Floorplan: floorplan.Config{Node: node},
				Workload:  p,
				Warmup:    sim.WarmupIdle,
				Steps:     100,
				Solver:    &thermal.ADI{},
				Record:    sim.RecordOptions{FieldEvery: 10},
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewAnalyzer(res.Fields[0], core.DefaultDefinition())
			if err != nil {
				t.Fatal(err)
			}
			limit := len(res.Fields[0].Data) / 20
			views := []struct {
				name string
				run  func(f *geometry.Field)
			}{
				{"MaxMLTDSeverity", func(f *geometry.Field) { a.MaxMLTDSeverity(f) }},
				{"MaxMLTD", func(f *geometry.Field) { a.MaxMLTD(f) }},
				{"MaxSeverity", func(f *geometry.Field) { a.MaxSeverity(f) }},
			}
			for i, f := range res.Fields {
				for _, v := range views {
					v.run(f)
					if n := core.Evals(a); n > limit {
						t.Fatalf("%v %s frame %d: %s evaluated %d disks, more than 5%% of %d cells",
							node, name, i, v.name, n, len(f.Data))
					}
				}
			}
		}
	}
}
