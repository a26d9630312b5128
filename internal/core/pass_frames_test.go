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

// The analysis pass on real Section-4A junction frames: every tenth
// frame of 100-step idle-warmup ADI runs of gcc, lbm and namd at 7, 10
// and 14 nm, against the per-cell definition (MLTDAt and Severity at
// every cell), compared exactly.
func TestAnalyzePassOnSec4AFrames(t *testing.T) {
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
			for i, f := range res.Fields {
				wantM, wantS := referenceMaxima(a, f)
				gotM, gotS := a.MaxMLTDSeverity(f)
				if gotM != wantM || gotS != wantS {
					t.Fatalf("%v %s frame %d: MaxMLTDSeverity (%.17g, %.17g) != reference (%.17g, %.17g)",
						node, name, i, gotM, gotS, wantM, wantS)
				}
				if got := a.MaxSeverity(f); got != wantS {
					t.Fatalf("%v %s frame %d: MaxSeverity %.17g != reference %.17g", node, name, i, got, wantS)
				}
			}
		}
	}
}

func referenceMaxima(a *core.Analyzer, f *geometry.Field) (mltd, sev float64) {
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			m := a.MLTDAt(f, ix, iy)
			if m > mltd {
				mltd = m
			}
			if s := core.Severity(f.At(ix, iy), m); s > sev {
				sev = s
			}
		}
	}
	return mltd, sev
}
