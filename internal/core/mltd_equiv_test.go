package core

import (
	"fmt"
	"math"
	"testing"

	"hotgauge/internal/geometry"
)

// Equivalence tests: the bound-pruned MaxMLTD and Detect against the
// per-cell disk reference MLTDAt. Pruning skips only cells whose bound
// proves they cannot matter, and the cells evaluated take MLTDAt itself,
// so the comparison is exact (==), not within a tolerance.

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

// TestDetectMatchesPerCandidateReference drives Detect through sparse
// frames (few hot candidates) and dense frames (base temperature above
// the threshold everywhere, so most candidates are hot) and checks both
// against the definition evaluated with the reference MLTDAt at every
// hot candidate.
func TestDetectMatchesPerCandidateReference(t *testing.T) {
	for _, base := range []float64{62, 95} {
		for seed := int64(1); seed <= 4; seed++ {
			f := gaussianField(45, 32, 0.1, base, seed, 6, 30)
			checkDetect(t, newRadiusAnalyzer(t, f, 1.0), f, fmt.Sprintf("base %v seed %d", base, seed))
		}
	}
}

// Detect at its bound's edge: one hot candidate's MLTD is the smallest
// float above MLTD_th its cold neighbour can give, another's is exactly
// MLTD_th, each with T − LB equal to its MLTD. Only the first is a
// hotspot.
func TestDetectBoundEdge(t *testing.T) {
	f := geometry.NewField(60, 30, 0.1)
	f.Fill(80)
	th := DefaultDefinition().MLTDThreshold
	for k, cold := range []float64{math.Nextafter(90-th, 0), 90 - th} {
		x := 15 + 30*k
		f.Set(x, 15, 90)
		f.Set(x+1, 15, cold)
	}
	a := newRadiusAnalyzer(t, f, 1.0)
	checkDetect(t, a, f, "edge")
	if hs := a.Detect(f); len(hs) != 1 || hs[0].IX != 15 || !(hs[0].MLTD > th) {
		t.Fatalf("Detect %+v, want the one candidate just above MLTD_th", hs)
	}
}

// checkDetect compares Detect with Definition 1 evaluated by the
// reference MLTDAt at every hot candidate.
func checkDetect(t *testing.T, a *Analyzer, f *geometry.Field, label string) {
	t.Helper()
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
		t.Fatalf("%s: Detect found %d hotspots, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: hotspot %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

func TestMLTDScanNoAllocsAfterWarmup(t *testing.T) {
	f := gaussianField(46, 31, 0.1, 60, 13, 5, 45)
	a := newRadiusAnalyzer(t, f, 1.0)
	allocs := testing.AllocsPerRun(10, func() {
		a.MaxMLTD(f)
		a.MaxSeverity(f)
		a.MaxMLTDSeverity(f)
		a.MaxSeverityIn(f, 5, 5, 20, 15)
	})
	if allocs != 0 {
		t.Fatalf("the analysis pass allocates %v objects per frame", allocs)
	}
}

// TestDetectNoAllocsOnHotFrame: Detect scans a frame in place, so a
// frame hot everywhere but without a hotspot allocates nothing.
func TestDetectNoAllocsOnHotFrame(t *testing.T) {
	f := gaussianField(46, 31, 0.1, 95, 13, 5, 10)
	a := newRadiusAnalyzer(t, f, 1.0)
	if hs := a.Detect(f); len(hs) != 0 {
		t.Fatalf("frame has %d hotspots, want none", len(hs))
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Detect(f) }); allocs != 0 {
		t.Fatalf("Detect allocates %v objects on a hot frame without hotspots", allocs)
	}
}
