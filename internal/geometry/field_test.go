package geometry

import (
	"math"
	"math/rand"
	"testing"
)

func TestFieldIndexingRoundTrip(t *testing.T) {
	f := NewField(7, 5, 0.1)
	n := 0
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			f.Set(ix, iy, float64(n))
			n++
		}
	}
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			if f.At(ix, iy) != float64(iy*f.NX+ix) {
				t.Fatalf("At(%d,%d) = %v", ix, iy, f.At(ix, iy))
			}
		}
	}
}

func TestFieldCellAt(t *testing.T) {
	f := NewField(10, 10, 0.1)
	ix, iy, ok := f.CellAt(0.55, 0.95)
	if !ok || ix != 5 || iy != 9 {
		t.Fatalf("CellAt = (%d,%d,%v)", ix, iy, ok)
	}
	if _, _, ok := f.CellAt(1.05, 0.5); ok {
		t.Fatal("point beyond grid reported in-bounds")
	}
	if _, _, ok := f.CellAt(-0.01, 0.5); ok {
		t.Fatal("negative point reported in-bounds")
	}
}

func TestFieldCellCenterInOwnCell(t *testing.T) {
	f := NewField(4, 3, 0.25)
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			x, y := f.CellCenter(ix, iy)
			jx, jy, ok := f.CellAt(x, y)
			if !ok || jx != ix || jy != iy {
				t.Fatalf("center of (%d,%d) maps to (%d,%d,%v)", ix, iy, jx, jy, ok)
			}
		}
	}
}

func TestFieldMaxMinMean(t *testing.T) {
	f := NewField(3, 3, 1)
	f.Fill(2)
	f.Set(1, 2, 9)
	f.Set(2, 0, -4)
	v, ix, iy := f.Max()
	if v != 9 || ix != 1 || iy != 2 {
		t.Fatalf("Max = %v at (%d,%d)", v, ix, iy)
	}
	v, ix, iy = f.Min()
	if v != -4 || ix != 2 || iy != 0 {
		t.Fatalf("Min = %v at (%d,%d)", v, ix, iy)
	}
	want := (2*7 + 9 - 4) / 9.0
	if got := f.Mean(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestRasterizeConservesTotal(t *testing.T) {
	f := NewField(20, 20, 0.1) // 2x2 mm grid
	r := Rect{X: 0.33, Y: 0.47, W: 0.9, H: 0.71}
	f.Rasterize(r, 5.0)
	if got := f.Sum(); math.Abs(got-5.0) > 1e-9 {
		t.Fatalf("rasterized sum = %v, want 5.0", got)
	}
}

func TestRasterizeClipsOffGrid(t *testing.T) {
	f := NewField(10, 10, 0.1) // 1x1 mm grid
	// Half of this rect hangs off the right edge; only the on-grid half of
	// the power should land.
	f.Rasterize(Rect{X: 0.9, Y: 0, W: 0.2, H: 1.0}, 4.0)
	if got := f.Sum(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("clipped sum = %v, want 2.0", got)
	}
}

func TestRasterizePartialCellWeights(t *testing.T) {
	f := NewField(2, 1, 1.0)
	// Rect covers all of cell 0 and half of cell 1.
	f.Rasterize(Rect{X: 0, Y: 0, W: 1.5, H: 1.0}, 3.0)
	if math.Abs(f.At(0, 0)-2.0) > 1e-9 || math.Abs(f.At(1, 0)-1.0) > 1e-9 {
		t.Fatalf("cells = %v, want [2 1]", f.Data)
	}
}

func TestSubAndAddFieldInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewField(6, 4, 0.5)
	b := NewField(6, 4, 0.5)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		b.Data[i] = rng.Float64()
	}
	d := a.Sub(b)
	d.AddField(b)
	for i := range d.Data {
		if math.Abs(d.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatalf("cell %d: %v != %v", i, d.Data[i], a.Data[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := NewField(2, 2, 1)
	g := f.Clone()
	g.Set(0, 0, 42)
	if f.At(0, 0) != 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestNewFieldPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-size field")
		}
	}()
	NewField(0, 3, 0.1)
}
