package geometry

import (
	"fmt"
	"math"
)

// Field is a regular 2-D scalar field sampled on a grid of NX×NY square
// cells of side Dx millimeters. Cell (ix, iy) covers the area
// [ix·Dx, (ix+1)·Dx) × [iy·Dx, (iy+1)·Dx) and its sample is taken to be the
// cell-average value. Data is stored row-major: index = iy*NX + ix.
//
// Field is the common currency between the thermal solver (temperature
// maps), the power model (power-density maps) and the hotspot detector.
type Field struct {
	NX, NY int       // grid dimensions in cells
	Dx     float64   // cell pitch [mm]
	Data   []float64 // row-major samples, len == NX*NY
}

// NewField allocates a zero-valued field of nx×ny cells with pitch dx mm.
func NewField(nx, ny int, dx float64) *Field {
	if nx <= 0 || ny <= 0 || dx <= 0 {
		panic(fmt.Sprintf("geometry: invalid field dimensions %dx%d dx=%g", nx, ny, dx))
	}
	return &Field{NX: nx, NY: ny, Dx: dx, Data: make([]float64, nx*ny)}
}

// Index returns the flat index of cell (ix, iy).
func (f *Field) Index(ix, iy int) int { return iy*f.NX + ix }

// At returns the value of cell (ix, iy).
func (f *Field) At(ix, iy int) float64 { return f.Data[iy*f.NX+ix] }

// Set assigns the value of cell (ix, iy).
func (f *Field) Set(ix, iy int, v float64) { f.Data[iy*f.NX+ix] = v }

// Add accumulates v into cell (ix, iy).
func (f *Field) Add(ix, iy int, v float64) { f.Data[iy*f.NX+ix] += v }

// In reports whether (ix, iy) is a valid cell coordinate.
func (f *Field) In(ix, iy int) bool {
	return ix >= 0 && ix < f.NX && iy >= 0 && iy < f.NY
}

// CellCenter returns the physical center of cell (ix, iy) in millimeters.
func (f *Field) CellCenter(ix, iy int) (x, y float64) {
	return (float64(ix) + 0.5) * f.Dx, (float64(iy) + 0.5) * f.Dx
}

// CellAt returns the cell containing physical point (x, y) [mm] and whether
// the point lies on the grid at all.
func (f *Field) CellAt(x, y float64) (ix, iy int, ok bool) {
	ix = int(math.Floor(x / f.Dx))
	iy = int(math.Floor(y / f.Dx))
	return ix, iy, f.In(ix, iy)
}

// Bounds returns the physical extent of the field as a Rect anchored at the
// origin.
func (f *Field) Bounds() Rect {
	return Rect{W: float64(f.NX) * f.Dx, H: float64(f.NY) * f.Dx}
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	g := NewField(f.NX, f.NY, f.Dx)
	copy(g.Data, f.Data)
	return g
}

// Fill sets every cell to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Max returns the maximum value and its cell coordinates. For an empty field
// it returns -Inf at (0, 0); fields are never empty by construction.
func (f *Field) Max() (v float64, ix, iy int) {
	v = math.Inf(-1)
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			if x := f.At(i, j); x > v {
				v, ix, iy = x, i, j
			}
		}
	}
	return v, ix, iy
}

// Min returns the minimum value and its cell coordinates.
func (f *Field) Min() (v float64, ix, iy int) {
	v = math.Inf(1)
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			if x := f.At(i, j); x < v {
				v, ix, iy = x, i, j
			}
		}
	}
	return v, ix, iy
}

// Mean returns the arithmetic mean of all cells.
func (f *Field) Mean() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s / float64(len(f.Data))
}

// Sum returns the sum of all cells.
func (f *Field) Sum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// Sub returns f - g as a new field. The fields must have identical shape.
func (f *Field) Sub(g *Field) *Field {
	f.mustMatch(g)
	out := NewField(f.NX, f.NY, f.Dx)
	for i := range f.Data {
		out.Data[i] = f.Data[i] - g.Data[i]
	}
	return out
}

// AddField accumulates g into f in place. The fields must have identical
// shape.
func (f *Field) AddField(g *Field) {
	f.mustMatch(g)
	for i := range f.Data {
		f.Data[i] += g.Data[i]
	}
}

// Scale multiplies every cell by k in place.
func (f *Field) Scale(k float64) {
	for i := range f.Data {
		f.Data[i] *= k
	}
}

func (f *Field) mustMatch(g *Field) {
	if f.NX != g.NX || f.NY != g.NY {
		panic(fmt.Sprintf("geometry: field shape mismatch %dx%d vs %dx%d", f.NX, f.NY, g.NX, g.NY))
	}
}

// Rasterize distributes the scalar total over the cells covered by r,
// weighting each cell by its overlap area with r, and accumulates the
// result into f. It is the primitive used to turn per-unit power numbers
// into a power-density map: after rasterizing power P over rect r, the sum
// of the affected cells increases by P (up to the fraction of r that lies
// on the grid).
func (f *Field) Rasterize(r Rect, total float64) {
	clipped := r.Intersection(f.Bounds())
	if clipped.Empty() || r.Area() <= 0 {
		return
	}
	perArea := total / r.Area()
	ix0 := int(math.Floor(clipped.X / f.Dx))
	iy0 := int(math.Floor(clipped.Y / f.Dx))
	ix1 := int(math.Ceil(clipped.MaxX()/f.Dx)) - 1
	iy1 := int(math.Ceil(clipped.MaxY()/f.Dx)) - 1
	for iy := max(iy0, 0); iy <= min(iy1, f.NY-1); iy++ {
		for ix := max(ix0, 0); ix <= min(ix1, f.NX-1); ix++ {
			cell := Rect{X: float64(ix) * f.Dx, Y: float64(iy) * f.Dx, W: f.Dx, H: f.Dx}
			ov := cell.Intersection(clipped).Area()
			if ov > 0 {
				f.Add(ix, iy, perArea*ov)
			}
		}
	}
}
