package core

import (
	"testing"

	"hotgauge/internal/geometry"
)

// Equivalence tests: the chord-decomposed sliding-window MLTD scan
// (mltd_fast.go) against the per-cell disk reference MLTDAt. Both
// minimize over identical cell sets and subtract identically, so the
// comparison is exact (==), not within a tolerance — including on
// degenerate 1-wide fields and radii that cover the whole die.

func newRadiusAnalyzer(t *testing.T, f *geometry.Field, radius float64) *Analyzer {
	t.Helper()
	def := DefaultDefinition()
	def.Radius = radius
	a, err := NewAnalyzer(f, def)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMLTDScanBitEqualToPerCellReference(t *testing.T) {
	shapes := []struct{ nx, ny int }{
		{1, 40}, {40, 1}, {2, 2}, {5, 5}, {33, 27}, {46, 31},
	}
	radii := []float64{0.15, 0.3, 1.0, 2.05, 6.0}
	seed := int64(0)
	for _, sh := range shapes {
		for _, r := range radii {
			seed++
			f := gaussianField(sh.nx, sh.ny, 0.1, 55, seed, 4, 40)
			a := newRadiusAnalyzer(t, f, r)
			scan := a.mltdScan(f)
			for iy := 0; iy < sh.ny; iy++ {
				for ix := 0; ix < sh.nx; ix++ {
					want := a.MLTDAt(f, ix, iy)
					if got := scan[iy*sh.nx+ix]; got != want {
						t.Fatalf("%dx%d r=%v: cell (%d,%d): scan %.17g != MLTDAt %.17g",
							sh.nx, sh.ny, r, ix, iy, got, want)
					}
				}
			}
		}
	}
}

func TestMLTDFieldBitEqualToPerCellReference(t *testing.T) {
	f := gaussianField(38, 29, 0.1, 60, 77, 5, 45)
	a := newRadiusAnalyzer(t, f, 1.0)
	m := a.MLTDField(f)
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			if got, want := m.At(ix, iy), a.MLTDAt(f, ix, iy); got != want {
				t.Fatalf("cell (%d,%d): field %.17g != MLTDAt %.17g", ix, iy, got, want)
			}
		}
	}
}

func TestMaxMLTDMatchesPerCellReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f := gaussianField(42, 33, 0.1, 58, seed, 5, 50)
		a := newRadiusAnalyzer(t, f, 1.0)
		want := 0.0
		for iy := 0; iy < f.NY; iy++ {
			for ix := 0; ix < f.NX; ix++ {
				if v := a.MLTDAt(f, ix, iy); v > want {
					want = v
				}
			}
		}
		if got := a.MaxMLTD(f); got != want {
			t.Fatalf("seed %d: MaxMLTD %.17g != per-cell max %.17g", seed, got, want)
		}
	}
}

// TestDetectAgreesOnBothCostPaths drives Detect through sparse frames
// (few hot candidates, per-candidate disk scan) and dense frames (base
// temperature above the threshold everywhere, sliding-window scan) and
// checks both against the definition evaluated with the reference MLTDAt
// at every candidate.
func TestDetectAgreesOnBothCostPaths(t *testing.T) {
	for _, base := range []float64{62, 95} {
		for seed := int64(1); seed <= 4; seed++ {
			f := gaussianField(45, 32, 0.1, base, seed, 6, 30)
			a := newRadiusAnalyzer(t, f, 1.0)
			var want []Hotspot
			for _, c := range a.Candidates(f) {
				if c.Temp <= a.def.TempThreshold {
					continue
				}
				c.MLTD = a.MLTDAt(f, c.IX, c.IY)
				if c.MLTD > a.def.MLTDThreshold {
					want = append(want, c)
				}
			}
			got := a.Detect(f)
			if len(got) != len(want) {
				t.Fatalf("base %v seed %d: Detect found %d hotspots, reference %d",
					base, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("base %v seed %d: hotspot %d: %+v != %+v", base, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMLTDScanNoAllocsAfterWarmup(t *testing.T) {
	f := gaussianField(46, 31, 0.1, 60, 13, 5, 45)
	a := newRadiusAnalyzer(t, f, 1.0)
	a.MaxMLTD(f) // warm the scratch buffers
	allocs := testing.AllocsPerRun(10, func() {
		a.MaxMLTD(f)
		a.MaxSeverity(f)
		a.MaxMLTDSeverity(f)
	})
	if allocs != 0 {
		t.Fatalf("MLTD scan allocates %v objects per frame after warmup", allocs)
	}
}
