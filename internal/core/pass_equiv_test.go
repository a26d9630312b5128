package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hotgauge/internal/geometry"
)

// Equivalence tests for the per-frame analysis pass (pass.go): the fused
// MaxMLTDSeverity and its two views against the per-cell definition —
// MLTDAt and Severity evaluated at every cell — compared exactly (==).
// The severity cuts skip cells only where the bound proves they cannot
// reach the maximum, so pruning must never change a bit of the result.

// referencePass is the per-cell definition of one frame's samples.
func referencePass(a *Analyzer, f *geometry.Field) (mltd, sev float64) {
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			m := a.MLTDAt(f, ix, iy)
			if m > mltd {
				mltd = m
			}
			if s := Severity(f.At(ix, iy), m); s > sev {
				sev = s
			}
		}
	}
	return mltd, sev
}

// checkPass compares the fused pass and both views with the reference
// and returns the reference severity.
func checkPass(t *testing.T, a *Analyzer, f *geometry.Field, label string) float64 {
	t.Helper()
	wantM, wantS := referencePass(a, f)
	gotM, gotS := a.MaxMLTDSeverity(f)
	if gotM != wantM || gotS != wantS {
		t.Fatalf("%s: MaxMLTDSeverity (%.17g, %.17g) != reference (%.17g, %.17g)",
			label, gotM, gotS, wantM, wantS)
	}
	if got := a.MaxMLTD(f); got != wantM {
		t.Fatalf("%s: MaxMLTD %.17g != reference %.17g", label, got, wantM)
	}
	if got := a.MaxSeverity(f); got != wantS {
		t.Fatalf("%s: MaxSeverity %.17g != reference %.17g", label, got, wantS)
	}
	return wantS
}

func TestAnalyzePassBitEqualToPerCellReference(t *testing.T) {
	shapes := []struct{ nx, ny int }{
		{1, 40}, {40, 1}, {2, 2}, {5, 5}, {33, 27}, {46, 31},
	}
	radii := []float64{0.15, 0.3, 1.0, 2.05, 6.0}
	seed := int64(0)
	for _, sh := range shapes {
		for _, r := range radii {
			for _, base := range []float64{45, 70, 95} {
				seed++
				f := gaussianField(sh.nx, sh.ny, 0.1, base, seed, 4, 40)
				checkPass(t, newRadiusAnalyzer(t, f, r), f, "gaussian")
			}
		}
	}
}

// Hot fields reach the clip value 1 (the pass returns as soon as it
// does); cold, flat fields clip every cell to 0 (no cut exists).
func TestAnalyzePassSaturatedAndColdFields(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		hot := gaussianField(41, 29, 0.1, 105, seed, 5, 30)
		if sev := checkPass(t, newRadiusAnalyzer(t, hot, 1.0), hot, "hot"); sev != 1 {
			t.Fatalf("seed %d: hot field severity %v, want saturation at 1", seed, sev)
		}
		cold := gaussianField(41, 29, 0.1, 40, seed, 3, 0.5)
		if sev := checkPass(t, newRadiusAnalyzer(t, cold, 1.0), cold, "cold"); sev != 0 {
			t.Fatalf("seed %d: cold field severity %v, want every cell clipped to 0", seed, sev)
		}
	}
	flat := geometry.NewField(20, 20, 0.1)
	for i := range flat.Data {
		flat.Data[i] = 40
	}
	checkPass(t, newRadiusAnalyzer(t, flat, 1.0), flat, "flat")
}

// Quantized fields are full of plateaus: equal temperatures, equal MLTDs
// and tied maxima, so many cells sit exactly on whatever cut the frame
// produces.
func TestAnalyzePassPlateausAndTies(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		f := gaussianField(37, 26, 0.1, 60+5*float64(seed), seed, 6, 45)
		step := []float64{0.25, 1, 4}[seed%3]
		for i, v := range f.Data {
			f.Data[i] = math.Round(v/step) * step
		}
		checkPass(t, newRadiusAnalyzer(t, f, 1.0), f, "quantized")
	}
}

// The cut boundary itself: cells placed exactly on, one ulp above and
// one ulp below mCut and tCut. The extremes and the seed cells are fixed,
// so the cuts the pass computes are the ones the test placed cells on.
func TestSeverityCutBoundaryTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 64
		temps, m := make([]float64, n), make([]float64, n)
		tMin, tMax := 40+40*rng.Float64(), 85+30*rng.Float64()
		mMin, mMax := -5*rng.Float64(), 10+30*rng.Float64()
		// Cells 0..3 pin the extremes and the two seeds.
		temps[0], m[0] = tMax, mMin
		temps[1], m[1] = tMin, mMax
		temps[2], m[2] = tMin, mMin
		temps[3], m[3] = tMin, mMin
		best := math.Max(Severity(temps[0], m[0]), Severity(temps[1], m[1]))
		mCut, tCut, prune := severityCuts(tMin, tMax, mMin, mMax, best)
		for i := 4; i < n; i++ {
			temps[i] = tMin + (tMax-tMin)*rng.Float64()
			m[i] = mMin + (mMax-mMin)*rng.Float64()
			if prune {
				if rng.Intn(2) == 0 && !math.IsInf(tCut, -1) {
					temps[i] = math.Nextafter(tCut, []float64{tCut, math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
				}
				if rng.Intn(2) == 0 && !math.IsInf(mCut, -1) {
					m[i] = math.Nextafter(mCut, []float64{mCut, math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
				}
				temps[i] = math.Min(math.Max(temps[i], tMin), tMax)
				m[i] = math.Min(math.Max(m[i], mMin), mMax)
			}
		}
		want := 0.0
		for i := range temps {
			if s := Severity(temps[i], m[i]); s > want {
				want = s
			}
		}
		if _, got := maxMLTDSeverity(temps, m); got != want {
			t.Fatalf("trial %d: pruned severity %.17g != reference %.17g (cuts m %v, T %v)",
				trial, got, want, mCut, tCut)
		}
	}
}

// The winner just above a cut: a seed cell sets the cut a hair below
// itself, and the true maximum sits one small step past the seed along
// the cut axis, so a cut placed even slightly too high would skip it.
func TestSeverityWinnerJustAboveCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		tMin, tMax := 45+10*rng.Float64(), 85+25*rng.Float64()
		mMin, mMax := -2*rng.Float64(), 30+10*rng.Float64()
		m0, t0 := 10+15*rng.Float64(), 60+20*rng.Float64()
		// Seeds: (tMax, m0) is the hottest cell and (t0, mMax) the
		// highest-MLTD one; the winners step past them by 0.01 in the
		// cut axis and 1e-7 back in the other.
		temps := []float64{tMax, t0, tMin, tMax - 1e-7, t0 + 0.01}
		m := []float64{m0, mMax, mMin, m0 + 0.01, mMax - 1e-7}
		for i := 0; i < 32; i++ {
			temps = append(temps, tMin+(t0-tMin)*rng.Float64())
			m = append(m, mMin+(m0-mMin)*rng.Float64())
		}
		want := 0.0
		for i := range temps {
			if s := Severity(temps[i], m[i]); s > want {
				want = s
			}
		}
		if _, got := maxMLTDSeverity(temps, m); got != want {
			t.Fatalf("trial %d: pruned severity %.17g != reference %.17g", trial, got, want)
		}
	}
}

// The bound the cuts rely on: U(T, m) ≥ sev(T, m), and U does not
// decrease in either argument.
func TestSeverityBoundDominatesAndIsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		tt, m := 20+120*rng.Float64(), -10+60*rng.Float64()
		u := severityBound(tt, m)
		if s := Severity(tt, m); s > u {
			t.Fatalf("sev(%v, %v) = %.17g above its bound %.17g", tt, m, s, u)
		}
		dt, dm := 5*rng.Float64(), 5*rng.Float64()
		if severityBound(tt+dt, m) < u-cutMargin || severityBound(tt, m+dm) < u-cutMargin {
			t.Fatalf("bound decreases near (%v, %v)", tt, m)
		}
	}
}

// analyzePassField decodes fuzz bytes into a field: two bytes per cell
// give a temperature quantized to 1/2 °C between 20 and about 150 °C,
// so plateaus and ties are common.
func analyzePassField(nx, ny uint8, data []byte) *geometry.Field {
	f := geometry.NewField(1+int(nx)%24, 1+int(ny)%24, 0.1)
	for i := range f.Data {
		var v uint16
		if 2*i+1 < len(data) {
			v = binary.LittleEndian.Uint16(data[2*i:])
		}
		f.Data[i] = 20 + float64(v%260)/2
	}
	return f
}

func FuzzAnalyzePass(f *testing.F) {
	f.Add(uint8(10), uint8(8), uint8(3), []byte{0, 1, 2, 3, 200, 0, 1, 1, 7, 0, 8, 1})
	f.Add(uint8(23), uint8(23), uint8(9), []byte{255, 255, 0, 0, 255, 255})
	f.Add(uint8(0), uint8(30), uint8(1), []byte{100, 0, 180, 0, 230, 0, 50, 0})
	f.Fuzz(func(t *testing.T, nx, ny, rad uint8, data []byte) {
		field := analyzePassField(nx, ny, data)
		checkPass(t, newRadiusAnalyzer(t, field, 0.1*float64(1+rad%12)), field, "fuzz")
	})
}
