package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/tech"
)

// reset empties the memo, so a test can assert which calls hit.
func (m *warmMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.entries)
	m.order = m.order[:0]
}

// coldSteady is the unmemoized sequence WarmSteady must reproduce.
func coldSteady(t *testing.T, g *Grid, power *Power, tol float64) *State {
	t.Helper()
	s := g.NewState(DefaultAmbient)
	if err := WarmStart(g, s, power); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSteady(g, s, power, tol, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// warmSteady runs WarmSteady on a state filled with junk (the result
// must not depend on it) and requires the wanted hit or miss.
func warmSteady(t *testing.T, name string, g *Grid, power *Power, tol float64, wantReused bool) *State {
	t.Helper()
	s := g.NewState(-273)
	reused, err := WarmSteady(g, s, power, tol)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if reused != wantReused {
		t.Fatalf("%s: reused = %v, want %v", name, reused, wantReused)
	}
	return s
}

func requireSameCells(t *testing.T, name string, got, want *State) {
	t.Helper()
	for i := range want.T {
		if got.T[i] != want.T[i] {
			t.Fatalf("%s: cell %d: %.17g, cold solve %.17g", name, i, got.T[i], want.T[i])
		}
	}
}

// TestWarmSteadyHitMatchesColdSolve checks that a memo hit hands back
// every cell of a fresh cold solve on the Ψ path (uniform power, 1e-5):
// the three die sizes × the default and liquid-cooled stacks. The idle
// warmups (1e-4) are covered with their production frames in
// internal/sim's TestIdleWarmupMatchesColdSolve.
func TestWarmSteadyHitMatchesColdSolve(t *testing.T) {
	warm.reset()
	check := func(name string, g *Grid, power *Power, tol float64) {
		t.Helper()
		cold := coldSteady(t, g, power, tol)
		miss := warmSteady(t, name, g, power, tol, false)
		requireSameCells(t, name+" miss", miss, cold)
		// The memo keeps its own copy: scribbling on a caller's state
		// must not reach the next hit.
		for i := range miss.T {
			miss.T[i] = math.NaN()
		}
		hit := warmSteady(t, name, g, power, tol, true)
		requireSameCells(t, name+" hit", hit, cold)
		hit.T[0] = math.NaN()
		requireSameCells(t, name+" second hit", warmSteady(t, name, g, power, tol, true), cold)
	}
	for _, node := range []tech.Node{tech.Node14, tech.Node10, tech.Node7} {
		for _, p := range steadyPresets {
			if p.name == "default" || p.name == "liquid" {
				g := nodeGrid(t, node, p.stack(), p.sink)
				check(fmt.Sprintf("%v/%s", node, p.name), g, uniformPower(g, 20), 1e-5)
			}
		}
	}
	// Psi itself: the memoized value equals the cold one, hit or miss.
	fp := floorplan.MustNew(floorplan.Config{Node: tech.Node7})
	g := nodeGrid(t, tech.Node7, DefaultStack(), SinkConductance)
	want := (g.MeanTemp(coldSteady(t, g, uniformPower(g, 20), 1e-5)) - DefaultAmbient) / 20
	for i := 0; i < 2; i++ {
		psi, err := Psi(fp.Die, DefaultResolution)
		if err != nil {
			t.Fatal(err)
		}
		if psi != want {
			t.Fatalf("Psi call %d: %.17g, cold solve %.17g", i, psi, want)
		}
	}
}

// sameCoefficients reports whether two grids present the same system
// to the steady solve.
func sameCoefficients(a, b *Grid) bool {
	if a.Ambient != b.Ambient || a.gConv != b.gConv {
		return false
	}
	for l := range a.gLat {
		if a.gLat[l] != b.gLat[l] || a.gUp[l] != b.gUp[l] || a.capC[l] != b.capC[l] {
			return false
		}
	}
	return true
}

// ulpGrid builds grids from x stepped up by one ulp at a time until the
// grid's coefficients differ from base's: the smallest change of that
// input the solve can see.
func ulpGrid(t *testing.T, base *Grid, x float64, build func(float64) (*Grid, error)) *Grid {
	t.Helper()
	for i := 0; i < 16; i++ {
		x = math.Nextafter(x, math.Inf(1))
		g, err := build(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCoefficients(g, base) {
			return g
		}
	}
	t.Fatal("16 ulps left the grid unchanged")
	return nil
}

// TestWarmSteadyKeyCoversEveryInput perturbs each input of the solve by
// the smallest step that changes it — ambient, sink, one layer's
// conductivity, one power cell, tol — and requires a miss that matches
// its own cold solve, while the unperturbed entry still hits.
func TestWarmSteadyKeyCoversEveryInput(t *testing.T) {
	newGrid := func(stack []Layer, sink, ambient float64) (*Grid, error) {
		return NewGrid(testDie, DefaultResolution, stack, sink, ambient)
	}
	base, err := newGrid(DefaultStack(), SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	basePower := randomSteadyPower(base, rand.New(rand.NewSource(20)))
	const tol = 1e-4

	cellPower := NewPower(basePower.Frames[0].Clone())
	cellPower.Frames[0].Data[17] = math.Nextafter(cellPower.Frames[0].Data[17], math.Inf(1))
	cases := []struct {
		name  string
		g     *Grid
		power *Power
		tol   float64
	}{
		{"ambient", ulpGrid(t, base, DefaultAmbient, func(x float64) (*Grid, error) {
			return newGrid(DefaultStack(), SinkConductance, x)
		}), basePower, tol},
		{"sink", ulpGrid(t, base, SinkConductance, func(x float64) (*Grid, error) {
			return newGrid(DefaultStack(), x, DefaultAmbient)
		}), basePower, tol},
		{"conductivity", ulpGrid(t, base, DefaultStack()[2].Conductivity, func(x float64) (*Grid, error) {
			stack := DefaultStack()
			stack[2].Conductivity = x
			return newGrid(stack, SinkConductance, DefaultAmbient)
		}), basePower, tol},
		{"power cell", base, cellPower, tol},
		{"tol", base, basePower, math.Nextafter(tol, 0)},
	}
	warm.reset()
	baseCold := coldSteady(t, base, basePower, tol)
	warmSteady(t, "base", base, basePower, tol, false)
	for _, c := range cases {
		requireSameCells(t, c.name, warmSteady(t, c.name, c.g, c.power, c.tol, false), coldSteady(t, c.g, c.power, c.tol))
		requireSameCells(t, c.name+": base", warmSteady(t, c.name+": base", base, basePower, tol, true), baseCold)
	}
}

// TestWarmSteadyConcurrentSameKey races several solves of one key (run
// it under -race): every caller gets the cold solve's cells, and the
// key is stored once.
func TestWarmSteadyConcurrentSameKey(t *testing.T) {
	warm.reset()
	g := newTestGrid(t)
	power := randomSteadyPower(g, rand.New(rand.NewSource(21)))
	cold := coldSteady(t, g, power, 1e-4)
	const callers = 4
	states := make([]*State, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range states {
		states[i] = g.NewState(float64(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = WarmSteady(g, states[i], power, 1e-4)
		}(i)
	}
	wg.Wait()
	for i, s := range states {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireSameCells(t, fmt.Sprintf("caller %d", i), s, cold)
	}
	if n := len(warm.entries); n != 1 {
		t.Fatalf("%d memo entries after same-key solves, want 1", n)
	}
	requireSameCells(t, "after", warmSteady(t, "after", g, power, 1e-4, true), cold)
}

// TestWarmSteadyEvictsAtBound fills the memo one key past its bound:
// the least recently used key goes, a recently used one stays, and the
// evicted key recomputes to the same cells.
func TestWarmSteadyEvictsAtBound(t *testing.T) {
	warm.reset()
	g, err := NewGrid(geometry.Rect{W: 0.5, H: 0.4}, DefaultResolution, DefaultStack(), SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	power := uniformPower(g, 1)
	tol := func(i int) float64 { return 1e-4 * (1 + float64(i)/64) }
	first := make([]*State, warmEntries+1)
	for i := 0; i < warmEntries; i++ {
		first[i] = warmSteady(t, fmt.Sprint("fill ", i), g, power, tol(i), false)
	}
	warmSteady(t, "touch 0", g, power, tol(0), true)
	first[warmEntries] = warmSteady(t, "overflow", g, power, tol(warmEntries), false)
	if n := len(warm.entries); n != warmEntries {
		t.Fatalf("%d memo entries, bound %d", n, warmEntries)
	}
	requireSameCells(t, "recently used", warmSteady(t, "recently used", g, power, tol(0), true), first[0])
	requireSameCells(t, "evicted", warmSteady(t, "evicted", g, power, tol(1), false), first[1])
	requireSameCells(t, "overflow", warmSteady(t, "overflow again", g, power, tol(warmEntries), true), first[warmEntries])
}

// TestWarmSteadyFailuresNotStored: a solve that fails — a bad power
// input, or an SOR that does not converge — leaves the memo untouched,
// so the next call fails the same way instead of reusing anything.
func TestWarmSteadyFailuresNotStored(t *testing.T) {
	warm.reset()
	g, err := NewGrid(geometry.Rect{W: 0.5, H: 0.4}, DefaultResolution, DefaultStack(), SinkConductance, DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	power := randomSteadyPower(g, rand.New(rand.NewSource(22)))
	short := &State{T: make([]float64, g.Cells()-1)}
	if _, err := WarmSteady(g, short, power, 1e-4); err == nil {
		t.Fatal("short state accepted")
	}
	if _, err := WarmSteady(g, g.NewState(0), NewPower(), 1e-4); err == nil {
		t.Fatal("missing power frame accepted")
	}
	for i := 0; i < 2; i++ {
		reused, err := WarmSteady(g, g.NewState(0), power, math.SmallestNonzeroFloat64)
		if err == nil || reused {
			t.Fatalf("call %d: reused %v, error %v; want an unconverged solve, not reused", i, reused, err)
		}
	}
	if n := len(warm.entries); n != 0 {
		t.Fatalf("%d memo entries after failed solves, want 0", n)
	}
}
