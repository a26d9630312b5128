package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hotgauge/internal/geometry"
)

// gaussianField builds a smooth synthetic temperature map from a few
// Gaussian bumps over a base temperature — the shape real junction maps
// have.
func gaussianField(nx, ny int, dx, base float64, seed int64, bumps int, amp float64) *geometry.Field {
	rng := rand.New(rand.NewSource(seed))
	f := geometry.NewField(nx, ny, dx)
	type bump struct{ cx, cy, sigma, a float64 }
	bs := make([]bump, bumps)
	for i := range bs {
		bs[i] = bump{
			cx:    rng.Float64() * float64(nx) * dx,
			cy:    rng.Float64() * float64(ny) * dx,
			sigma: 0.2 + rng.Float64()*0.8,
			a:     amp * (0.3 + rng.Float64()),
		}
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			x, y := f.CellCenter(ix, iy)
			t := base
			for _, b := range bs {
				d2 := (x-b.cx)*(x-b.cx) + (y-b.cy)*(y-b.cy)
				t += b.a * math.Exp(-d2/(2*b.sigma*b.sigma))
			}
			f.Set(ix, iy, t)
		}
	}
	return f
}

func newTestAnalyzer(t *testing.T, f *geometry.Field) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(f, DefaultDefinition())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDefaultDefinition(t *testing.T) {
	d := DefaultDefinition()
	if d.TempThreshold != 80 || d.MLTDThreshold != 25 || d.Radius != 1.0 {
		t.Fatalf("defaults %+v do not match the case study (80, 25, 1mm)", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Definition{Radius: -1, MLTDThreshold: 25}).Validate() == nil {
		t.Fatal("negative radius accepted")
	}
	if (Definition{Radius: 1, MLTDThreshold: 0}).Validate() == nil {
		t.Fatal("zero MLTD threshold accepted")
	}
}

func TestAnalyzerRejectsTooCoarseRadius(t *testing.T) {
	f := geometry.NewField(10, 10, 2.0) // 2 mm cells, 1 mm radius
	if _, err := NewAnalyzer(f, DefaultDefinition()); err == nil {
		t.Fatal("radius smaller than a cell accepted")
	}
}

func TestMLTDUniformFieldIsZero(t *testing.T) {
	f := geometry.NewField(30, 30, 0.1)
	f.Fill(95)
	a := newTestAnalyzer(t, f)
	if m := a.MaxMLTD(f); m != 0 {
		t.Fatalf("uniform field MaxMLTD = %v", m)
	}
	if hs := a.Detect(f); len(hs) != 0 {
		t.Fatalf("uniform hot field produced %d hotspots; high T alone is not a hotspot", len(hs))
	}
}

func TestMLTDKnownGradient(t *testing.T) {
	// A single hot cell +40 °C above a flat 60 °C background: MLTD at the
	// hot cell is exactly 40 within any radius.
	f := geometry.NewField(40, 40, 0.1)
	f.Fill(60)
	f.Set(20, 20, 100)
	a := newTestAnalyzer(t, f)
	if m := a.MLTDAt(f, 20, 20); m != 40 {
		t.Fatalf("MLTD at hot cell = %v, want 40", m)
	}
	// At a neighbour cell, MLTD is 0: it is not hotter than its coldest
	// neighbour (it IS the background).
	if m := a.MLTDAt(f, 25, 25); m != 0 {
		t.Fatalf("MLTD at background cell = %v, want 0", m)
	}
}

func TestMLTDRespectsRadius(t *testing.T) {
	// Cold spot just outside the radius must not contribute.
	f := geometry.NewField(60, 60, 0.1)
	f.Fill(90)
	f.Set(30, 30, 100)
	f.Set(30, 45, 40) // 1.5 mm away, beyond the 1 mm radius
	a := newTestAnalyzer(t, f)
	if m := a.MLTDAt(f, 30, 30); m != 10 {
		t.Fatalf("MLTD = %v, want 10 (cold spot outside radius ignored)", m)
	}
	wide, err := NewAnalyzer(f, Definition{TempThreshold: 80, MLTDThreshold: 25, Radius: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if m := wide.MLTDAt(f, 30, 30); m != 60 {
		t.Fatalf("wide-radius MLTD = %v, want 60", m)
	}
}

func TestCandidatesAreLocalMaxima(t *testing.T) {
	f := gaussianField(40, 30, 0.1, 50, 7, 5, 45)
	a := newTestAnalyzer(t, f)
	for _, c := range a.Candidates(f) {
		t4 := []float64{}
		if c.IX > 0 {
			t4 = append(t4, f.At(c.IX-1, c.IY))
		}
		if c.IX < f.NX-1 {
			t4 = append(t4, f.At(c.IX+1, c.IY))
		}
		if c.IY > 0 {
			t4 = append(t4, f.At(c.IX, c.IY-1))
		}
		if c.IY < f.NY-1 {
			t4 = append(t4, f.At(c.IX, c.IY+1))
		}
		for _, n := range t4 {
			if n > c.Temp {
				t.Fatalf("candidate at (%d,%d) is not a local maximum", c.IX, c.IY)
			}
		}
	}
}

func TestGlobalMaxIsAlwaysACandidate(t *testing.T) {
	f := func(seed int64) bool {
		fl := gaussianField(30, 30, 0.1, 50, seed, 6, 50)
		a, err := NewAnalyzer(fl, DefaultDefinition())
		if err != nil {
			return false
		}
		_, mx, my := fl.Max()
		for _, c := range a.Candidates(fl) {
			if c.IX == mx && c.IY == my {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDetectSubsetOfNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := gaussianField(45, 32, 0.1, 60, seed, 6, 55)
		a := newTestAnalyzer(t, f)
		naive := map[[2]int]bool{}
		for _, h := range a.DetectNaive(f) {
			naive[[2]int{h.IX, h.IY}] = true
		}
		for _, h := range a.Detect(f) {
			if !naive[[2]int{h.IX, h.IY}] {
				t.Fatalf("seed %d: Detect found (%d,%d) that naive did not", seed, h.IX, h.IY)
			}
		}
	}
}

func TestDetectPresenceAgreesWithNaive(t *testing.T) {
	// On smooth fields the candidate detector and the naive detector must
	// agree on whether ANY hotspot exists — the property TUH depends on.
	for seed := int64(0); seed < 40; seed++ {
		f := gaussianField(45, 32, 0.1, 55, seed, 5, 50)
		a := newTestAnalyzer(t, f)
		fast := len(a.Detect(f)) > 0
		naive := len(a.DetectNaive(f)) > 0
		if fast != naive {
			t.Fatalf("seed %d: presence disagreement fast=%v naive=%v", seed, fast, naive)
		}
	}
}

func TestDetectRequiresBothThresholds(t *testing.T) {
	// Hot but uniform: no. Steep but cool: no. Hot and steep: yes.
	mk := func(base, peak float64) *geometry.Field {
		f := geometry.NewField(40, 40, 0.1)
		f.Fill(base)
		// A smooth bump so local maxima behave.
		for dy := -3; dy <= 3; dy++ {
			for dx := -3; dx <= 3; dx++ {
				v := (peak - base) * math.Exp(-float64(dx*dx+dy*dy)/4)
				f.Set(20+dx, 20+dy, base+v)
			}
		}
		return f
	}
	a := newTestAnalyzer(t, mk(0, 0))

	hotUniform := geometry.NewField(40, 40, 0.1)
	hotUniform.Fill(100)
	if len(a.Detect(hotUniform)) != 0 {
		t.Fatal("uniform 100°C die flagged as hotspot")
	}

	coolSteep := mk(20, 60) // 40° gradient but max 60°C < 80
	if len(a.Detect(coolSteep)) != 0 {
		t.Fatal("cool die with steep gradient flagged")
	}

	hotSteep := mk(60, 100) // 100°C peak, 40° gradient
	hs := a.Detect(hotSteep)
	if len(hs) == 0 {
		t.Fatal("hot steep bump not detected")
	}
	if hs[0].IX != 20 || hs[0].IY != 20 {
		t.Fatalf("hotspot at (%d,%d), want (20,20)", hs[0].IX, hs[0].IY)
	}
}

func TestDetectFarFewerCandidatesThanCells(t *testing.T) {
	f := gaussianField(60, 40, 0.1, 60, 3, 6, 50)
	a := newTestAnalyzer(t, f)
	nc := len(a.Candidates(f))
	if nc == 0 || nc > f.NX*f.NY/10 {
		t.Fatalf("candidate count %d not ≪ %d cells", nc, f.NX*f.NY)
	}
}

func TestSigmoidEquation1(t *testing.T) {
	// At x = x₀ the sigmoid is a/2 + y₀.
	if got := Sigmoid(115, 115, 0, 0.2, 2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("σ(x₀) = %v, want 1", got)
	}
	// Monotone increasing for s > 0.
	if Sigmoid(10, 15, -0.25, 0.2, 1.25) >= Sigmoid(20, 15, -0.25, 0.2, 1.25) {
		t.Fatal("σ_M not increasing")
	}
}

func TestSeverityAnchors(t *testing.T) {
	// Fig. 7 anchors: severity saturates to 1 at ≥115 °C regardless of
	// MLTD; ambient-cool die has ≈0 severity; the (80 °C, 25 °C) hotspot
	// definition point indicates mitigation (≥0.5).
	// σ_df alone reaches 1.0 at exactly 115 °C; with zero MLTD the
	// (negative) timing term pulls the total slightly below.
	if s := SigmaDF(115); math.Abs(s-1) > 1e-12 {
		t.Fatalf("σ_df(115) = %v, want 1", s)
	}
	if s := Severity(115, 0); s < 0.80 {
		t.Fatalf("sev(115,0) = %v, want ≥0.80", s)
	}
	if s := Severity(115, 25); s < 0.99 {
		t.Fatalf("sev(115,25) = %v, want ≈1 (device failure imminent)", s)
	}
	if s := Severity(130, 50); s != 1 {
		t.Fatalf("sev(130,50) = %v, want clipped to 1", s)
	}
	if s := Severity(40, 2); s > 0.15 {
		t.Fatalf("sev(40,2) = %v, want ≈0", s)
	}
	if s := Severity(80, 25); s < 0.5 || s > 0.85 {
		t.Fatalf("sev at the hotspot definition point = %v, want mitigation-required territory", s)
	}
}

func TestSeverityMonotoneAndBounded(t *testing.T) {
	f := func(t1, m1, dt, dm float64) bool {
		t0 := math.Mod(math.Abs(t1), 150)
		m0 := math.Mod(math.Abs(m1), 80)
		ddt := math.Mod(math.Abs(dt), 30)
		ddm := math.Mod(math.Abs(dm), 30)
		s0 := Severity(t0, m0)
		s1 := Severity(t0+ddt, m0+ddm)
		return s0 >= 0 && s0 <= 1 && s1+1e-12 >= s0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSeverityMatchesBruteForce(t *testing.T) {
	f := gaussianField(35, 25, 0.1, 65, 9, 4, 50)
	a := newTestAnalyzer(t, f)
	want := 0.0
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			if s := Severity(f.At(ix, iy), a.MLTDAt(f, ix, iy)); s > want {
				want = s
			}
		}
	}
	if got := a.MaxSeverity(f); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxSeverity = %v, want %v", got, want)
	}
}

func TestEdgeCellsHandled(t *testing.T) {
	// Hotspot in the die corner: stencil clipped, no panic, detection
	// still works.
	f := geometry.NewField(30, 30, 0.1)
	f.Fill(55)
	f.Set(0, 0, 110)
	a := newTestAnalyzer(t, f)
	hs := a.Detect(f)
	if len(hs) != 1 || hs[0].IX != 0 || hs[0].IY != 0 {
		t.Fatalf("corner hotspot not detected: %+v", hs)
	}
	if m := a.MLTDAt(f, 0, 0); m != 55 {
		t.Fatalf("corner MLTD = %v, want 55", m)
	}
}
