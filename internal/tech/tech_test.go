package tech

import (
	"math"
	"testing"
)

func TestGenerations(t *testing.T) {
	cases := []struct {
		n    Node
		want int
	}{
		{Node14, 0}, {Node10, 1}, {Node7, 2}, {Node(5), 3}, {Node(3), 4}, {Node(22), 0},
	}
	for _, c := range cases {
		if got := c.n.Generation(); got != c.want {
			t.Errorf("%v.Generation() = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAreaScaleHalvesPerGeneration(t *testing.T) {
	want := map[Node]float64{Node14: 1.0, Node10: 0.5, Node7: 0.25}
	for n, w := range want {
		if got := n.AreaScale(); math.Abs(got-w) > 1e-12 {
			t.Errorf("%v.AreaScale() = %v, want %v", n, got, w)
		}
	}
}

func TestCdynScale(t *testing.T) {
	want := map[Node]float64{Node14: 1.0, Node10: 0.8, Node7: 0.64}
	for n, w := range want {
		if got := n.CdynScale(); math.Abs(got-w) > 1e-12 {
			t.Errorf("%v.CdynScale() = %v, want %v", n, got, w)
		}
	}
}

func TestPowerDensityRisesPostDennard(t *testing.T) {
	// Per the paper's §II-A argument: power falls slower than area, so
	// power density must rise each generation. P ∝ CdynScale (same V, f),
	// density ∝ CdynScale/AreaScale.
	prev := 0.0
	for _, n := range Nodes() {
		density := n.CdynScale() / n.AreaScale()
		if density < prev {
			t.Fatalf("power density fell at %v: %v < %v", n, density, prev)
		}
		prev = density
	}
	d7 := Node7.CdynScale() / Node7.AreaScale()
	if d7 < 2.0 {
		t.Fatalf("7nm density scale = %v, want ≥ 2x the Dennard-constant baseline", d7)
	}
}

func TestLeakageDensityScaleMonotone(t *testing.T) {
	if !(Node7.LeakageDensityScale() > Node10.LeakageDensityScale() &&
		Node10.LeakageDensityScale() > Node14.LeakageDensityScale()) {
		t.Fatal("leakage density must increase with newer nodes")
	}
}

func TestNodeString(t *testing.T) {
	if Node7.String() != "7nm" {
		t.Fatalf("String = %q", Node7.String())
	}
}
