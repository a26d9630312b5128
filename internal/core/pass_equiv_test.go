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
// The block bounds skip cells only where they prove a cell cannot reach
// a maximum, so pruning must never change a bit of the result.

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

// On a cold field every severity bound sits below 0, so once the seeds
// hold the best (0) nothing else is evaluated; on a flat one the MLTD
// bounds are 0 too, and the three seeds are one cell.
func TestAnalyzePassColdFieldEvaluatesOnlySeeds(t *testing.T) {
	flat := geometry.NewField(46, 31, 0.1)
	flat.Fill(40)
	a := newRadiusAnalyzer(t, flat, 1.0)
	if m, s := a.MaxMLTDSeverity(flat); m != 0 || s != 0 || a.evals != 1 {
		t.Fatalf("flat field: (%v, %v) from %d exact evaluations, want (0, 0) from the one seed", m, s, a.evals)
	}
	for seed := int64(1); seed <= 4; seed++ {
		cold := gaussianField(46, 31, 0.1, 40, seed, 3, 0.5)
		a := newRadiusAnalyzer(t, cold, 1.0)
		if s := a.MaxSeverity(cold); s != 0 || a.evals > 2 {
			t.Fatalf("seed %d: cold field severity %v from %d exact evaluations, want 0 from at most the 2 seeds",
				seed, s, a.evals)
		}
	}
}

// edgeBg is the background temperature of edgeDie.
const edgeBg = 50.0

// edgeDie is a die of one row of 3×3-cell blocks at edgeBg: 0.5 mm cells
// and a 1.5 mm radius make n = 3, so a disk reaches exactly one block
// sideways and every cell of a block lies in the disk of every other.
func edgeDie(t *testing.T, blocks int) (*geometry.Field, *Analyzer) {
	t.Helper()
	f := geometry.NewField(3*blocks, 3, 0.5)
	f.Fill(edgeBg)
	return f, newRadiusAnalyzer(t, f, 1.5)
}

// coldEdge bisects for the highest cold temperature c with
// severityBound(t, t−c) ≥ u: the bound falls as c rises.
func coldEdge(t, u float64) float64 {
	lo, hi := t-80, t-20
	for i := 0; i < 200; i++ {
		if mid := lo/2 + hi/2; severityBound(t, t-mid) >= u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// coldFor returns a cold temperature c with severityBound(t, t−c) == u
// exactly, searching the floats around coldEdge; some u are not hit by
// any c.
func coldFor(t, u float64) (float64, bool) {
	up, down := coldEdge(t, u), coldEdge(t, u)
	for k := 0; k < 400; k++ {
		if severityBound(t, t-up) == u {
			return up, true
		}
		if severityBound(t, t-down) == u {
			return down, true
		}
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
	}
	return 0, false
}

// The edge of the severity bound: three cells whose U sits exactly at
// best − δ, one ulp above it and one ulp below it. Each cell's disk holds
// its block neighbourhood's minimum, so its severity equals its U, and
// its block's bound equals it too. The hottest cell S is the only seed
// and the best. The cells at and above the edge must be evaluated, the
// one below it skipped, and no other cell can pass.
func TestSeverityCutBoundaryTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		f, a := edgeDie(t, 12)
		tS := 85 + 10*rng.Float64()
		f.Set(4, 1, tS)
		f.Set(3, 1, tS-45)
		best := Severity(tS, tS-(tS-45))
		edge := best - boundMargin
		for k, u := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
			// U moves in steps of a few ulps as c varies, so each cell
			// draws its own temperature until one hits u exactly.
			tX, c, ok := 0.0, 0.0, false
			for attempt := 0; attempt < 200 && !ok; attempt++ {
				tX = tS - 0.1*rng.Float64()
				c, ok = coldFor(tX, u)
			}
			if !ok {
				t.Fatalf("trial %d: no cell puts U at %.17g", trial, u)
			}
			bx := 4 + 3*k
			f.Set(3*bx+1, 1, tX)
			f.Set(3*bx, 1, c)
		}
		checkPass(t, a, f, "edge")
		if got := a.MaxSeverity(f); got != best {
			t.Fatalf("trial %d: MaxSeverity %.17g, want the seed's %.17g", trial, got, best)
		}
		if a.evals != 3 {
			t.Fatalf("trial %d: %d exact evaluations, want 3 (the seed, the cells at and above the edge)", trial, a.evals)
		}
	}
}

// The winner just above the edge: W's severity beats the best by less
// than δ. W is not a seed: the hotter cell H of W's block is (its block
// has the largest bound), but H's disk misses the cold cell next to W
// and is kept warm, so only W can win. A bound compared the wrong way round, or with δ
// added instead of taken off, would skip W.
func TestSeverityWinnerJustAboveCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		f, a := edgeDie(t, 6)
		tS := 85 + 5*rng.Float64() // S's cold cell stays below edgeBg
		f.Set(4, 1, tS)
		f.Set(3, 1, tS-40)
		best := Severity(tS, tS-(tS-40))
		tW := tS - 0.1*rng.Float64()
		c := coldEdge(tW, best+1e-12*(1+rng.Float64()))
		for x := 10; x <= 17; x++ { // H's disk, kept warm
			for y := 0; y < 3; y++ {
				f.Set(x, y, tW-5)
			}
		}
		f.Set(12, 1, tW)     // W: the left column of block 4
		f.Set(9, 1, c)       // three cells left of W, in block 3
		f.Set(14, 1, tW+.05) // H: five cells right of the cold cell
		want := checkPass(t, a, f, "winner")
		if !(want > best && want < best+boundMargin) {
			t.Fatalf("trial %d: reference %.17g is not just above the seed's %.17g", trial, want, best)
		}
	}
}

// The MLTD edge: T − LB equal to the best exactly is skipped (a maximum
// moves only on >), and a winner one ulp above it is found although the
// block's hotter cell, not the winner, is the bound seed.
func TestMLTDBoundEdge(t *testing.T) {
	f, a := edgeDie(t, 9)
	tS := 90.0
	f.Set(4, 1, tS)
	f.Set(3, 1, tS-45)
	best := tS - (tS - 45)
	f.Set(13, 1, 80) // E in block 4: T − LB == best
	f.Set(12, 1, 80-best)
	if 80-(80-best) != best {
		t.Fatal("tie cell misplaced")
	}
	wm := math.Nextafter(best, math.Inf(1))
	tW := 85.0
	f.Set(21, 1, tW) // W: the left column of block 7, its cold cell in block 6
	f.Set(18, 1, tW-wm)
	f.Set(23, 1, tW+1) // H: hotter, its disk misses the cold cell
	wantM := tW - (tW - wm)
	if !(wantM > best) {
		t.Fatal("winner misplaced")
	}
	if got := a.MaxMLTD(f); got != wantM {
		t.Fatalf("MaxMLTD %.17g, want %.17g", got, wantM)
	}
	if a.evals != 3 {
		t.Fatalf("%d exact evaluations, want 3 (the seeds S and H, then W)", a.evals)
	}
	checkPass(t, a, f, "mltd edge")
}

// The bounds the pass relies on, over random arguments, against
// Equation 2 before clipping: the cell bound U(T, M) is at least
// σ_df(T) + σ_M(m)·σ_T(T) for every m ≤ M and does not decrease in M,
// and a block's bound is at least that for every T in the block's range
// and m ≤ T_max − LB, including blocks where σ_M(T_max − LB) < 0.
func TestSeverityBoundDominatesAndIsMonotone(t *testing.T) {
	raw := func(t, m float64) float64 { return SigmaDF(t) + SigmaM(m)*SigmaT(t) }
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		tt, m := 20+120*rng.Float64(), -10+60*rng.Float64()
		u := severityBound(tt, m)
		if s := raw(tt, m-5*rng.Float64()); s > u {
			t.Fatalf("Equation 2 at (%v, ≤%v) = %.17g above its bound %.17g", tt, m, s, u)
		}
		if severityBound(tt, m+5*rng.Float64()) < u-boundMargin {
			t.Fatalf("bound decreases in M near (%v, %v)", tt, m)
		}
		spread := []float64{2, 10, 60}[i%3]
		b := block{min: 20 + 100*rng.Float64()}
		b.max = b.min + spread*rng.Float64()
		b.lb = b.min - spread*rng.Float64()
		ub := b.severityBound()
		cell := b.min + (b.max-b.min)*rng.Float64()
		if s := raw(cell, cell-b.lb-spread*rng.Float64()); s > ub {
			t.Fatalf("Equation 2 at %v in block [%v, %v] with LB %v = %.17g above the block bound %.17g",
				cell, b.min, b.max, b.lb, s, ub)
		}
	}
}

// analyzePassField decodes fuzz bytes into a field: two bytes per cell
// give a temperature quantized to 1/2 °C between 20 and about 150 °C,
// so plateaus and ties are common, or one of NaN, +Inf and −Inf, which
// no solver produces but the pass must still handle as MLTDAt does.
func analyzePassField(nx, ny uint8, data []byte) *geometry.Field {
	f := geometry.NewField(1+int(nx)%24, 1+int(ny)%24, 0.1)
	for i := range f.Data {
		var v uint16
		if 2*i+1 < len(data) {
			v = binary.LittleEndian.Uint16(data[2*i:])
		}
		switch v %= 263; v {
		case 260:
			f.Data[i] = math.NaN()
		case 261:
			f.Data[i] = math.Inf(1)
		case 262:
			f.Data[i] = math.Inf(-1)
		default:
			f.Data[i] = 20 + float64(v)/2
		}
	}
	return f
}

func FuzzAnalyzePass(f *testing.F) {
	f.Add(uint8(10), uint8(8), uint8(3), []byte{0, 1, 2, 3, 200, 0, 1, 1, 7, 0, 8, 1})
	f.Add(uint8(23), uint8(23), uint8(9), []byte{255, 255, 0, 0, 255, 255})
	f.Add(uint8(0), uint8(30), uint8(1), []byte{100, 0, 180, 0, 230, 0, 50, 0})
	f.Add(uint8(6), uint8(5), uint8(2), []byte{4, 1, 0, 1, 5, 1, 6, 1, 200, 0, 4, 1, 5, 1, 120, 0})
	f.Fuzz(func(t *testing.T, nx, ny, rad uint8, data []byte) {
		field := analyzePassField(nx, ny, data)
		a := newRadiusAnalyzer(t, field, 0.1*float64(1+rad%12))
		checkPass(t, a, field, "fuzz")
		checkDetect(t, a, field, "fuzz")
	})
}
