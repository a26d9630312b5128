package sim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// PanicError is a panic recovered on a run's goroutine, converted into a
// per-run error so one degenerate configuration fails alone instead of
// taking down the whole campaign (or daemon). Value is the recovered
// panic value and Stack the goroutine stack captured at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: run panicked: %v", e.Value)
}

// RunTimeoutError reports a run that exceeded its per-run wall-time
// budget (Config.MaxWallTime; hotgauged sets it from -run-timeout) and
// was aborted at a step boundary. It is deliberately distinct from
// context.DeadlineExceeded: a run deadline is a per-run failure, not a
// campaign- or job-level cancellation, so the serving layer attributes
// it to the run instead of marking the run skipped.
type RunTimeoutError struct {
	// Limit is the wall-time budget that was exceeded.
	Limit time.Duration
}

// Error implements error.
func (e *RunTimeoutError) Error() string {
	return fmt.Sprintf("sim: run exceeded wall-time limit %s", e.Limit)
}

// SolverDivergedError reports a thermal solve that produced a non-finite
// temperature field — the signature of an unstable explicit integration
// (or a degenerate configuration). RunCtx checks the frame maximum after
// every step, so divergence surfaces as an error at the step it first
// poisons the field instead of as NaNs in the recorded series.
type SolverDivergedError struct {
	// Step is the 0-based timestep whose frame first went non-finite.
	Step int
	// Solver names the solver that produced it.
	Solver string
	// MaxTemp is the offending frame maximum (NaN or ±Inf).
	MaxTemp float64
}

// Error implements error.
func (e *SolverDivergedError) Error() string {
	return fmt.Sprintf("sim: %s solver diverged at step %d (frame max %v)", e.Solver, e.Step, e.MaxTemp)
}

// transienter is the marker contract for retryable failures: any error
// in the chain whose Transient() method reports true is classified
// retryable (internal/fault's injected errors implement it, and so can
// any future I/O-backed source).
type transienter interface{ Transient() bool }

// Retryable classifies err for the retry layer. Retryable failures are
// transient by construction (marker interface) or recoverable by policy
// (solver divergence, which RunWithRetry retries on the unconditionally
// stable ADI solver). Panics, per-run
// deadlines, cancellations and plain validation errors are not
// retryable: re-running a deterministic failure only burns time.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return false
	}
	var te *RunTimeoutError
	if errors.As(err, &te) {
		return false
	}
	var tr transienter
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	var de *SolverDivergedError
	return errors.As(err, &de)
}
