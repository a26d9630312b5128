package floorplan

import (
	"fmt"
	"math"
	"sort"

	"hotgauge/internal/geometry"
	"hotgauge/internal/tech"
)

// BaseCoreArea14 is the per-core area at 14 nm from Table I [mm²].
const BaseCoreArea14 = 5.0

// NumCores is the core count of the case-study die (Table I).
const NumCores = 7

// Config selects the floorplan variant to build.
type Config struct {
	// Node is the process node; linear dimensions scale with
	// √(Node.AreaScale()) relative to 14 nm. Zero value means 14 nm.
	Node tech.Node

	// KindScale multiplies the *area* of every unit of the given kind in
	// every core (the §V-A mitigation study). Unscaled kinds keep their
	// absolute area; the core grows to make room. Nil means no scaling.
	KindScale map[Kind]float64

	// ICAreaFactor uniformly scales the total die area by this factor
	// (the §V-B limit study): every rectangle's linear dimensions grow by
	// √ICAreaFactor, spreading the same power over more silicon. Values
	// ≤ 0 and 1 mean no scaling.
	ICAreaFactor float64

	// CoreArea14 overrides the 14 nm per-core area [mm²]; zero means
	// BaseCoreArea14.
	CoreArea14 float64

	// MirrorRight mirrors the unit order within each row of the
	// right-column cores (1, 4, 6), as physically adjacent cores on real
	// dies often are.
	MirrorRight bool

	// RowShuffleSeed, when non-zero, deterministically permutes each
	// row's unit order in every core — one sample of the floorplanning
	// design space for placement-based mitigation studies.
	RowShuffleSeed int64
}

// Floorplan is a fully placed die: every functional unit of every core plus
// the uncore blocks, with the die outline.
type Floorplan struct {
	Node      tech.Node
	Die       geometry.Rect           // die outline anchored at the origin
	Units     []Unit                  // all placed units
	CoreRects [NumCores]geometry.Rect // outline of each core
	byName    map[string]int          // unit name → index in Units
	Config    Config                  // the config this plan was built from
}

// New builds the 7-core case-study floorplan for the given configuration.
func New(cfg Config) (*Floorplan, error) {
	if cfg.Node == 0 {
		cfg.Node = tech.Node14
	}
	coreArea14 := cfg.CoreArea14
	if coreArea14 <= 0 {
		coreArea14 = BaseCoreArea14
	}
	for k, s := range cfg.KindScale {
		if s <= 0 {
			return nil, fmt.Errorf("floorplan: non-positive scale %g for kind %s", s, k)
		}
	}

	coreArea := coreArea14 * cfg.Node.AreaScale()

	// Baseline core dimensions (without unit scaling) size the uncore, so
	// mitigation floorplans keep the same uncore.
	_, baseRect := coreLayout(0, 0, 0, coreArea, nil, layoutOpts{})
	baseW, baseH := baseRect.W, baseRect.H
	// Scaled core dimensions determine the column pitch.
	_, scaledRect := coreLayout(0, 0, 0, coreArea, cfg.KindScale, layoutOpts{})
	colW := scaledRect.W
	slotH := scaledRect.H

	imcW := 0.30 * baseW // left IMC/IO strip
	saH := 0.35 * baseH  // top system-agent strip
	colH := 3 * slotH
	dieW := imcW + 3*colW
	dieH := colH + saH

	fp := &Floorplan{
		Node:   cfg.Node,
		Die:    geometry.Rect{W: dieW, H: dieH},
		byName: make(map[string]int),
		Config: cfg,
	}

	// Left strip: IMC bottom half, IO top half. Their activity makes the
	// neighbouring left-side cores (0, 2, 5) run hotter, reproducing the
	// paper's core-position asymmetry.
	fp.addUnit(Unit{Name: "IMC", Kind: KindIMC, Core: -1,
		Rect: geometry.Rect{X: 0, Y: 0, W: imcW, H: colH / 2}})
	fp.addUnit(Unit{Name: "IO", Kind: KindIO, Core: -1,
		Rect: geometry.Rect{X: 0, Y: colH / 2, W: imcW, H: colH / 2}})

	// Core columns: left {0,2,5}, middle {3 between two L3 slices},
	// right {1,4,6}, all bottom to top.
	leftX := imcW
	midX := imcW + colW
	rightX := imcW + 2*colW
	place := func(core int, x, y float64, mirror bool) {
		opts := layoutOpts{mirror: mirror, shuffleSeed: cfg.RowShuffleSeed}
		units, rect := coreLayout(core, x, y, coreArea, cfg.KindScale, opts)
		for _, u := range units {
			fp.addUnit(u)
		}
		fp.CoreRects[core] = rect
	}
	place(0, leftX, 0, false)
	place(2, leftX, slotH, false)
	place(5, leftX, 2*slotH, false)
	place(1, rightX, 0, cfg.MirrorRight)
	place(4, rightX, slotH, cfg.MirrorRight)
	place(6, rightX, 2*slotH, cfg.MirrorRight)
	place(3, midX, slotH, false)
	fp.addUnit(Unit{Name: "L3_0", Kind: KindL3, Core: -1,
		Rect: geometry.Rect{X: midX, Y: 0, W: colW, H: slotH}})
	fp.addUnit(Unit{Name: "L3_1", Kind: KindL3, Core: -1,
		Rect: geometry.Rect{X: midX, Y: 2 * slotH, W: colW, H: slotH}})

	// System agent across the top.
	fp.addUnit(Unit{Name: "SA", Kind: KindSA, Core: -1,
		Rect: geometry.Rect{X: 0, Y: colH, W: dieW, H: saH}})

	if f := cfg.ICAreaFactor; f > 0 && f != 1 {
		s := math.Sqrt(f)
		fp.Die.W *= s
		fp.Die.H *= s
		for i := range fp.Units {
			r := &fp.Units[i].Rect
			r.X *= s
			r.Y *= s
			r.W *= s
			r.H *= s
		}
		for i := range fp.CoreRects {
			r := &fp.CoreRects[i]
			r.X *= s
			r.Y *= s
			r.W *= s
			r.H *= s
		}
	}

	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// MustNew is like New but panics on error; for use with known-good configs
// in examples and benchmarks.
func MustNew(cfg Config) *Floorplan {
	fp, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return fp
}

func (fp *Floorplan) addUnit(u Unit) {
	fp.byName[u.Name] = len(fp.Units)
	fp.Units = append(fp.Units, u)
}

// Unit returns the unit with the given instance name.
func (fp *Floorplan) Unit(name string) (Unit, bool) {
	i, ok := fp.byName[name]
	if !ok {
		return Unit{}, false
	}
	return fp.Units[i], true
}

// UnitsOfKind returns all units of the given kind, across all cores.
func (fp *Floorplan) UnitsOfKind(k Kind) []Unit {
	var out []Unit
	for _, u := range fp.Units {
		if u.Kind == k {
			out = append(out, u)
		}
	}
	return out
}

// CoreUnits returns the units belonging to the given core.
func (fp *Floorplan) CoreUnits(core int) []Unit {
	var out []Unit
	for _, u := range fp.Units {
		if u.Core == core {
			out = append(out, u)
		}
	}
	return out
}

// UnitAt returns the unit containing the die point (x, y) [mm], if any.
func (fp *Floorplan) UnitAt(x, y float64) (Unit, bool) {
	for _, u := range fp.Units {
		if u.Rect.Contains(x, y) {
			return u, true
		}
	}
	return Unit{}, false
}

// TotalUnitArea returns the summed area of all units [mm²].
func (fp *Floorplan) TotalUnitArea() float64 {
	a := 0.0
	for _, u := range fp.Units {
		a += u.Area()
	}
	return a
}

// WhitespaceFraction returns the fraction of the die not covered by any
// unit. The baseline plan is nearly gap-free; IC-scaled plans report the
// added whitespace implicitly through their larger unit rectangles, so this
// stays near zero for them too.
func (fp *Floorplan) WhitespaceFraction() float64 {
	return 1 - fp.TotalUnitArea()/fp.Die.Area()
}

// Validate checks structural invariants: units lie within the die, units
// do not overlap, each core has every core kind exactly once, and the die
// is essentially fully covered.
func (fp *Floorplan) Validate() error {
	const eps = 1e-9
	for _, u := range fp.Units {
		r := u.Rect
		if r.X < -eps || r.Y < -eps || r.MaxX() > fp.Die.MaxX()+eps || r.MaxY() > fp.Die.MaxY()+eps {
			return fmt.Errorf("floorplan: unit %s %v outside die %v", u.Name, r, fp.Die)
		}
		if r.Empty() {
			return fmt.Errorf("floorplan: unit %s has empty rect", u.Name)
		}
	}
	// Overlap check via sweep over x-sorted units.
	idx := make([]int, len(fp.Units))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return fp.Units[idx[a]].Rect.X < fp.Units[idx[b]].Rect.X })
	for a := 0; a < len(idx); a++ {
		ua := fp.Units[idx[a]]
		for b := a + 1; b < len(idx); b++ {
			ub := fp.Units[idx[b]]
			if ub.Rect.X >= ua.Rect.MaxX()-eps {
				break
			}
			ov := ua.Rect.Intersection(ub.Rect)
			if ov.Area() > 1e-9 {
				return fmt.Errorf("floorplan: units %s and %s overlap by %.3g mm²", ua.Name, ub.Name, ov.Area())
			}
		}
	}
	for c := 0; c < NumCores; c++ {
		seen := map[Kind]int{}
		for _, u := range fp.CoreUnits(c) {
			seen[u.Kind]++
		}
		for _, k := range CoreKinds() {
			if seen[k] != 1 {
				return fmt.Errorf("floorplan: core %d has %d units of kind %s, want 1", c, seen[k], k)
			}
		}
	}
	if ws := fp.WhitespaceFraction(); ws > 0.02 {
		return fmt.Errorf("floorplan: %.1f%% of the die is uncovered", ws*100)
	}
	return nil
}

// LeftCores and RightCores identify core positions on the die; the paper
// reports MLTD asymmetry between them at 7 nm.
func LeftCores() []int  { return []int{0, 2, 5} }
func RightCores() []int { return []int{1, 4, 6} }
