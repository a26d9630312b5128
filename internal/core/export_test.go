package core

// Evals returns the number of exact disk evaluations in a's last pass.
func Evals(a *Analyzer) int { return a.evals }
