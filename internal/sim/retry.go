package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hotgauge/internal/thermal"
)

// Retry backoff constants.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
	retrySeed      = 1
)

// RetryPolicy bounds how RunWithRetry re-attempts a run that failed with
// a Retryable error. Backoff between attempts is exponential (50 ms ·
// 2^(attempt−1), capped at 2 s) with multiplicative jitter in [0.5, 1.5)
// drawn from a fixed-seed stream. Every run seeds that stream afresh, so
// the jitter spreads one run's successive retries, not concurrent runs:
// equal failure sequences back off by equal delays, which keeps retry
// timing reproducible. The zero value never retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (≤ 1 means no retry).
	MaxAttempts int
	// Sleep overrides the context-aware backoff sleep (tests inject a
	// fake clock here). Nil uses a timer honoring ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

// backoff returns the jittered delay before retry number `retry`
// (1-based).
func backoff(retry int, rng *rand.Rand) time.Duration {
	d := retryBaseDelay
	for i := 1; i < retry && d < retryMaxDelay; i++ {
		d *= 2
	}
	d = min(d, retryMaxDelay)
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// sleep waits for d or until ctx is cancelled, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return ctx.Err()
	}
}

// RunWithRetry is RunCtx with bounded retry: failures classified
// Retryable are re-attempted up to p.MaxAttempts total attempts with
// exponential backoff and jitter, counting each retry in sim/retries.
// Non-retryable failures (panics, deadlines, cancellations, validation
// errors) return immediately. A *SolverDivergedError is retried on a
// fresh thermal.ADI solver (the stability fallback). On success after
// that fallback the returned Result still carries the caller's original
// Config.
func RunWithRetry(ctx context.Context, cfg Config, p RetryPolicy) (*Result, error) {
	attempts := p.MaxAttempts
	if attempts <= 1 {
		return RunCtx(ctx, cfg)
	}
	orig := cfg
	retries := cfg.Obs.Counter(MetricRetries)
	rng := rand.New(rand.NewSource(retrySeed))
	sleepFn := p.Sleep
	if sleepFn == nil {
		sleepFn = sleep
	}

	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		res, err := RunCtx(ctx, cfg)
		if err == nil {
			res.Config = orig
			return res, nil
		}
		lastErr = err
		if attempt == attempts || !Retryable(err) {
			break
		}
		var div *SolverDivergedError
		if errors.As(err, &div) {
			// A diverging integration is deterministic: retrying the same
			// solver would fail identically, so fall back to the
			// unconditionally stable ADI solver. Each retry gets a fresh
			// instance — solver scratch must never be shared.
			cfg.Solver = &thermal.ADI{}
		}
		retries.Inc()
		if serr := sleepFn(ctx, backoff(attempt, rng)); serr != nil {
			return nil, fmt.Errorf("sim: cancelled during retry backoff: %w (last attempt: %v)", serr, lastErr)
		}
	}
	if !Retryable(lastErr) {
		return nil, lastErr
	}
	return nil, fmt.Errorf("sim: run failed after %d attempts: %w", attempts, lastErr)
}
