package thermal

import (
	"hotgauge/internal/geometry"
)

// ThermalBudget is the junction headroom the paper assumes when computing
// TDP from Ψ: 100 °C max operating temperature minus 40 °C local ambient.
const ThermalBudget = 60.0

// Psi computes the junction-to-ambient thermal resistance Ψ_j,a [°C/W] of
// the default stack for a die of the given outline: the steady-state rise
// of the mean junction temperature per Watt of uniformly injected power.
// This is the Table IV validation metric.
func Psi(die geometry.Rect, resolutionMM float64) (float64, error) {
	g, err := NewGrid(die, resolutionMM, DefaultStack(), SinkConductance, DefaultAmbient)
	if err != nil {
		return 0, err
	}
	const totalPower = 20.0 // W; Ψ is linear in power, any value works
	frame := geometry.NewField(g.NX, g.NY, resolutionMM)
	per := totalPower / float64(g.NX*g.NY)
	for i := range frame.Data {
		frame.Data[i] = per
	}
	power := NewPower(frame)
	s := g.NewState(DefaultAmbient)
	if _, err := WarmSteady(g, s, power, 1e-5); err != nil {
		return 0, err
	}
	return (g.MeanTemp(s) - DefaultAmbient) / totalPower, nil
}

// TDP converts a thermal resistance into the sustainable power for the
// paper's 60 °C thermal budget [W].
func TDP(psi float64) float64 { return ThermalBudget / psi }
