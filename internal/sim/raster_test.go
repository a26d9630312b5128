package sim

import (
	"math"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
)

// TestUnitMeansNoAllocs: the leakage feedback's per-unit means refill
// the cache's own map every step, so a step's query allocates nothing
// and reads each unit's area-weighted mean of the current state.
func TestUnitMeansNoAllocs(t *testing.T) {
	fp, err := floorplan.New(floorplan.Config{Node: tech.Node14})
	if err != nil {
		t.Fatal(err)
	}
	const res = 0.2
	nx, ny := int(math.Ceil(fp.Die.W/res)), int(math.Ceil(fp.Die.H/res))
	rc := newRasterCache(fp.Units, nx, ny, res, 0)
	state := &thermal.State{T: make([]float64, nx*ny)}
	for i := range state.T {
		state.T[i] = 40 + float64(i%97)/10
	}
	if allocs := testing.AllocsPerRun(10, func() { rc.unitMeans(state) }); allocs != 0 {
		t.Fatalf("unitMeans allocates %v objects per step", allocs)
	}
	means := rc.unitMeans(state)
	for _, uc := range rc.units {
		if uc.area == 0 {
			continue
		}
		sum := 0.0
		for _, wc := range uc.cells {
			sum += state.T[wc.idx] * wc.frac
		}
		if got, want := means[uc.name], sum/uc.area; got != want {
			t.Fatalf("%s: mean %.17g, want %.17g", uc.name, got, want)
		}
	}
}
