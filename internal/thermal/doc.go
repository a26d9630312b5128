// Package thermal implements the transient thermal-simulation substrate of
// the toolchain: the role 3D-ICE 3.0 plays in the original. It is a
// from-scratch 3-D finite-volume compact thermal model (an RC network over
// a regular grid) of the Fig. 4 stack: silicon die (split into active and
// bulk layers for vertical resolution, as §III-C requires), solder TIM,
// copper heat spreader, thermal grease, and a fan-cooled heatsink with a
// convective boundary to ambient.
//
// Two transient solvers are provided: an explicit forward-Euler solver
// with an automatically derived stability substep (the default and the
// accuracy reference), and an adaptive alternating-direction-implicit
// (ADI) solver that is unconditionally stable (the campaign fast path and
// the divergence fallback; the solver name "implicit" is an alias for
// it). ADI runs one Thomas sweep per grid direction for every substep,
// and its Richardson ladder starts each level from the level-1 RHS
// pre-scaled by 1/n, exact because n is a power of two. A steady-state
// SOR solver serves Ψ/TDP computation (Table IV), idle-warmup
// initialization and the FastSteady jumps. Its sweeps run as a four-row
// wavefront that is bit-identical to the lexicographic loop kept in
// solver_ref.go as the oracle; WarmStart and SolveSteady allocate
// nothing per call. WarmSteady (WarmStart then SolveSteady) memoizes the
// solved state process-wide, keyed on a digest of every input, so the
// idle warmup and Ψ solve once per geometry and power map.
//
// Both transient solvers optionally report their work into internal/obs
// counters (Substeps, StabilityHits): the explicit solver counts its
// stability-bounded substeps, ADI its substeps and subdivision-cap hits.
package thermal
