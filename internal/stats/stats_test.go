package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("input mutated")
	}
}

func TestPercentilesConsistent(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8}
	got := Percentiles(xs, 5, 25, 50)
	for i, p := range []float64{5, 25, 50} {
		if got[i] != Percentile(xs, p) {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], Percentile(xs, p))
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		v := Percentile(xs, pp)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return v >= s[0] && v <= s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileNaNProperty pins the NaN determinism contract: a NaN
// anywhere in the input makes every percentile NaN, regardless of where
// the NaN sits (sort.Float64s strands NaNs at comparison-dependent
// positions, so anything other than full propagation would depend on the
// input order).
func TestPercentileNaNProperty(t *testing.T) {
	f := func(raw []float64, at uint, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := append([]float64(nil), raw...)
		xs[int(at%uint(len(xs)))] = math.NaN()
		pp := math.Mod(math.Abs(p), 100)
		if !math.IsNaN(Percentile(xs, pp)) {
			return false
		}
		for _, v := range Percentiles(xs, 5, 50, 95) {
			if !math.IsNaN(v) {
				return false
			}
		}
		b := BoxOf(xs)
		if b.N != len(xs) {
			return false
		}
		return math.IsNaN(b.Min) && math.IsNaN(b.Q1) && math.IsNaN(b.Median) &&
			math.IsNaN(b.Q3) && math.IsNaN(b.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileNaNOrderIndependent spells out the determinism half of
// the contract on a fixed slice: every rotation of a NaN-bearing input
// yields the same (NaN) answer.
func TestPercentileNaNOrderIndependent(t *testing.T) {
	base := []float64{3, math.NaN(), 1, 4, 1, 5, 9, 2, 6}
	for rot := range base {
		xs := append(append([]float64(nil), base[rot:]...), base[:rot]...)
		if !math.IsNaN(Percentile(xs, 50)) {
			t.Fatalf("rotation %d: median %v, want NaN", rot, Percentile(xs, 50))
		}
	}
	// And the no-NaN baseline still answers normally.
	if v := Percentile([]float64{3, 1, 4, 1, 5}, 50); v != 3 {
		t.Fatalf("clean median = %v, want 3", v)
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{4, 1, 3, 2, 5})
	if b.N != 5 || b.Min != 1 || b.Median != 3 || b.Max != 5 {
		t.Fatalf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 || b.IQR() != 2 {
		t.Fatalf("quartiles = %+v", b)
	}
	if e := BoxOf(nil); e.N != 0 || !math.IsNaN(e.Median) {
		t.Fatalf("empty box = %+v", e)
	}
}

func TestMeanStdRMS(t *testing.T) {
	xs := []float64{3, 4}
	if m := Mean(xs); m != 3.5 {
		t.Fatalf("mean = %v", m)
	}
	if s := Std(xs); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("std = %v", s)
	}
	// RMS of {3,4} = sqrt(12.5).
	if r := RMS(xs); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("rms = %v", r)
	}
}

func TestRMSWeightsHighSeverityMore(t *testing.T) {
	// The §V-B motivation: 1 timestep at severity X must score worse than
	// 2 timesteps at X/2 over the same horizon.
	a := []float64{1.0, 0, 0, 0}
	b := []float64{0.5, 0.5, 0, 0}
	if RMS(a) <= RMS(b) {
		t.Fatalf("RMS(%v)=%v not > RMS(%v)=%v", a, RMS(a), b, RMS(b))
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0.5, 1, 3, 3.5, 9.9, -5, 42})
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	// -5 clamps into bin 0, 42 into bin 4.
	if h.Counts[0] != 3 || h.Counts[4] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	sum := 0.0
	for _, f := range h.Normalized() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized sums to %v", sum)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestHistogramPeak(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	h.AddAll([]float64{2.5, 2.6, 2.4, 7.1})
	c, f := h.Peak()
	if c != 2.5 || math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("peak = (%v,%v)", c, f)
	}
}

func TestHistogramSpreadWidensWithVariance(t *testing.T) {
	narrow, _ := NewHistogram(-10, 10, 100)
	wide, _ := NewHistogram(-10, 10, 100)
	for i := 0; i < 1000; i++ {
		v := float64(i%11)/10 - 0.5 // within ±0.5
		narrow.Add(v)
		wide.Add(v * 8) // within ±4
	}
	if narrow.Spread(0.98) >= wide.Spread(0.98) {
		t.Fatalf("narrow spread %v not < wide spread %v", narrow.Spread(0.98), wide.Spread(0.98))
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if c := h.BinCenter(0); c != 1 {
		t.Fatalf("bin 0 center = %v", c)
	}
	if c := h.BinCenter(4); c != 9 {
		t.Fatalf("bin 4 center = %v", c)
	}
}
