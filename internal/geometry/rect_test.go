package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizesNegativeSizes(t *testing.T) {
	r := NewRect(5, 5, -2, -3)
	want := Rect{X: 3, Y: 2, W: 2, H: 3}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
}

func TestRectArea(t *testing.T) {
	if got := (Rect{W: 2.5, H: 4}).Area(); got != 10 {
		t.Fatalf("Area = %v, want 10", got)
	}
}

func TestRectContainsEdges(t *testing.T) {
	r := Rect{X: 1, Y: 1, W: 2, H: 2}
	cases := []struct {
		x, y float64
		want bool
	}{
		{1, 1, true},    // lower-left corner inside
		{3, 3, false},   // upper-right corner outside
		{3, 1, false},   // right edge outside
		{1, 3, false},   // top edge outside
		{2, 2, true},    // center
		{0.5, 2, false}, // left of rect
	}
	for _, c := range cases {
		if got := r.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestAdjacentRectsDoNotIntersect(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 1, H: 1}
	b := Rect{X: 1, Y: 0, W: 1, H: 1}
	if a.Intersects(b) {
		t.Fatal("edge-adjacent rects reported as intersecting")
	}
	if got := a.Intersection(b); !got.Empty() {
		t.Fatalf("Intersection of adjacent rects = %v, want empty", got)
	}
}

func TestIntersectionCommutes(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := NewRect(clampCoord(ax), clampCoord(ay), clampCoord(aw), clampCoord(ah))
		b := NewRect(clampCoord(bx), clampCoord(by), clampCoord(bw), clampCoord(bh))
		return a.Intersection(b) == b.Intersection(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionIsContained(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := NewRect(clampCoord(ax), clampCoord(ay), clampCoord(aw), clampCoord(ah))
		b := NewRect(clampCoord(bx), clampCoord(by), clampCoord(bw), clampCoord(bh))
		ov := a.Intersection(b)
		if ov.Empty() {
			return true
		}
		return ov.Area() <= a.Area()+1e-12 && ov.Area() <= b.Area()+1e-12 &&
			ov.X >= a.X-1e-12 && ov.MaxX() <= a.MaxX()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clampCoord maps an arbitrary float into a well-behaved coordinate range
// so property tests exercise geometry, not float pathology.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

func TestScaledAboutPreservesCenter(t *testing.T) {
	r := Rect{X: 2, Y: 3, W: 4, H: 6}
	s := r.ScaledAbout(2)
	cx0, cy0 := r.Center()
	cx1, cy1 := s.Center()
	if math.Abs(cx0-cx1) > 1e-12 || math.Abs(cy0-cy1) > 1e-12 {
		t.Fatalf("center moved: (%v,%v) -> (%v,%v)", cx0, cy0, cx1, cy1)
	}
	if math.Abs(s.Area()-4*r.Area()) > 1e-9 {
		t.Fatalf("area after 2x linear scale = %v, want %v", s.Area(), 4*r.Area())
	}
}

func TestDist(t *testing.T) {
	if got := Dist(0, 0, 3, 4); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}
