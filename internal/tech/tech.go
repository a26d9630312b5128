package tech

import "fmt"

// Node identifies a process technology node by its marketing length in
// nanometers.
type Node int

// The three nodes studied in the paper's case study.
const (
	Node14 Node = 14
	Node10 Node = 10
	Node7  Node = 7
)

// Nodes lists the case-study nodes from oldest to newest.
func Nodes() []Node { return []Node{Node14, Node10, Node7} }

// String implements fmt.Stringer.
func (n Node) String() string { return fmt.Sprintf("%dnm", int(n)) }

// Generation returns how many node generations n is beyond 14 nm
// (14 nm → 0, 10 nm → 1, 7 nm → 2, 5 nm → 3, ...). Unknown intermediate
// values are mapped to the nearest defined generation below.
func (n Node) Generation() int {
	switch {
	case n >= 14:
		return 0
	case n >= 10:
		return 1
	case n >= 7:
		return 2
	case n >= 5:
		return 3
	case n >= 3:
		return 4
	default:
		return 5
	}
}

// Scaling rules per generation, as used in the paper (§III-B): 50 % area
// scaling node to node and a 20 % decrease in C_dyn.
const (
	AreaScalePerGen = 0.5
	CdynScalePerGen = 0.8
)

// pow returns base**exp for small non-negative integer exponents.
func pow(base float64, exp int) float64 {
	v := 1.0
	for i := 0; i < exp; i++ {
		v *= base
	}
	return v
}

// AreaScale returns the factor by which a block's area shrinks relative to
// the same block at 14 nm (1.0 at 14 nm, 0.5 at 10 nm, 0.25 at 7 nm).
func (n Node) AreaScale() float64 { return pow(AreaScalePerGen, n.Generation()) }

// CdynScale returns the factor by which effective switching capacitance
// shrinks relative to 14 nm (1.0, 0.8, 0.64 for the case-study nodes).
func (n Node) CdynScale() float64 { return pow(CdynScalePerGen, n.Generation()) }

// LeakageDensityScale returns the factor by which leakage power *per unit
// area* grows relative to 14 nm. Total leakage per transistor falls slightly
// each generation, but with 2× transistor density the per-area leakage
// rises; we model a net 1.4× per-area increase per generation, which keeps
// leakage a roughly constant ~20-30 % share of total power across the
// case-study nodes at the calibrated operating point.
func (n Node) LeakageDensityScale() float64 { return pow(1.4, n.Generation()) }

// OperatingPoint is a voltage-frequency pair.
type OperatingPoint struct {
	Voltage   float64 // supply voltage [V]
	Frequency float64 // clock frequency [Hz]
}

// TurboPoint is the max-power V-f point used throughout the case study,
// representative of turbo boost: 1.4 V at 5 GHz.
var TurboPoint = OperatingPoint{Voltage: 1.4, Frequency: 5e9}

// DennardPowerDensityScale returns the power-density scaling that classic
// Dennard scaling would have delivered (constant, i.e. 1.0) — kept as an
// explicit function so the §II-A power-density experiment can report the
// "2× worse than Dennard" comparison against a named baseline.
func DennardPowerDensityScale(Node) float64 { return 1.0 }
