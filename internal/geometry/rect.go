package geometry

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle with its lower-left corner at (X, Y).
// All coordinates are in millimeters.
type Rect struct {
	X, Y float64 // lower-left corner [mm]
	W, H float64 // width and height [mm]
}

// NewRect returns a rectangle with the given lower-left corner and size.
// Negative sizes are normalized so that W and H are always non-negative.
func NewRect(x, y, w, h float64) Rect {
	if w < 0 {
		x, w = x+w, -w
	}
	if h < 0 {
		y, h = y+h, -h
	}
	return Rect{X: x, Y: y, W: w, H: h}
}

// Area returns the area of r in mm².
func (r Rect) Area() float64 { return r.W * r.H }

// MaxX returns the x coordinate of the right edge.
func (r Rect) MaxX() float64 { return r.X + r.W }

// MaxY returns the y coordinate of the top edge.
func (r Rect) MaxY() float64 { return r.Y + r.H }

// Center returns the center point of r.
func (r Rect) Center() (x, y float64) { return r.X + r.W/2, r.Y + r.H/2 }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Contains reports whether the point (x, y) lies inside r. Points on the
// lower and left edges are inside; points on the upper and right edges are
// outside, so adjacent rectangles partition the plane without double
// counting.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X && x < r.MaxX() && y >= r.Y && y < r.MaxY()
}

// Intersects reports whether r and s share interior area.
func (r Rect) Intersects(s Rect) bool {
	return r.X < s.MaxX() && s.X < r.MaxX() && r.Y < s.MaxY() && s.Y < r.MaxY()
}

// Intersection returns the overlapping region of r and s. If the rectangles
// do not overlap, the returned rectangle is empty (zero width or height).
func (r Rect) Intersection(s Rect) Rect {
	x0 := math.Max(r.X, s.X)
	y0 := math.Max(r.Y, s.Y)
	x1 := math.Min(r.MaxX(), s.MaxX())
	y1 := math.Min(r.MaxY(), s.MaxY())
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// ScaledAbout returns r scaled by factor k about its own center, so that
// area grows by k² while the center stays fixed.
func (r Rect) ScaledAbout(k float64) Rect {
	cx, cy := r.Center()
	w, h := r.W*k, r.H*k
	return Rect{X: cx - w/2, Y: cy - h/2, W: w, H: h}
}

// ScaledAreaAbout returns r with its area scaled by factor k (linear
// dimensions by √k) about its own center.
func (r Rect) ScaledAreaAbout(k float64) Rect {
	return r.ScaledAbout(math.Sqrt(k))
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	x0 := math.Min(r.X, s.X)
	y0 := math.Min(r.Y, s.Y)
	x1 := math.Max(r.MaxX(), s.MaxX())
	y1 := math.Max(r.MaxY(), s.MaxY())
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(%.3f,%.3f %.3fx%.3f mm)", r.X, r.Y, r.W, r.H)
}

// Dist returns the Euclidean distance between points (x0, y0) and (x1, y1).
func Dist(x0, y0, x1, y1 float64) float64 {
	return math.Hypot(x1-x0, y1-y0)
}
