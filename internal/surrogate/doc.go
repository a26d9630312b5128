// Package surrogate is the predict-first triage tier: a deterministic,
// dependency-free model that maps a sim.Config — workload features,
// per-unit activity/power statistics from one cheap interval-model
// probe, floorplan geometry summaries and solver/grid parameters — to a
// predicted peak hotspot severity and TUH with a per-prediction
// confidence estimate. The model is a seeded bootstrap-ridge ensemble
// blended with an inverse-distance k-NN over standardized features: near
// the training data the k-NN dominates (in-sample queries return their
// exact result), far from it the ridge extrapolates and confidence
// decays, which is exactly the signal triage needs to fall back to the
// exact pipeline. Fit consumes the content-addressed result store the
// daemon already accumulates (see serve.FitSurrogate), training is
// order-independent and bit-deterministic for a given seed and key set,
// and models serialize to versioned JSON that refuses to load across a
// feature-schema change. A *Model is the sim.Predictor behind
// sim.NewTriager in hotgauged and hotgauge -surrogate.
package surrogate
