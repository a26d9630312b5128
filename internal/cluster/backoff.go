package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff defaults, the same base, cap and seed as sim.RetryPolicy's
// backoff.
const (
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second
	defaultBackoffSeed = 1
)

// backoff computes capped exponential delays with seeded multiplicative
// jitter: base·2^(attempt−1), capped at max, scaled by [0.5, 1.5) drawn
// from a deterministic stream. One instance is shared by all retry
// loops of its owner (worker join, result posting, dispatch retry), so
// a fleet booted from distinct seeds never synchronizes its retry
// storms while a test replaying one seed sees the exact same delays.
// Safe for concurrent use.
type backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// newBackoff builds a backoff; zero base/max/seed take the defaults.
func newBackoff(base, max time.Duration, seed int64) *backoff {
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max <= 0 {
		max = defaultBackoffMax
	}
	if seed == 0 {
		seed = defaultBackoffSeed
	}
	return &backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// delay returns the jittered backoff before retry number attempt
// (1-based; values below 1 are treated as the first retry).
func (b *backoff) delay(attempt int) time.Duration {
	d := b.base
	for i := 1; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.mu.Lock()
	j := 0.5 + b.rng.Float64()
	b.mu.Unlock()
	return time.Duration(float64(d) * j)
}

// sleepCtx waits for d or until ctx is cancelled, whichever comes
// first — the default Sleep seam of the worker's retry loops.
func sleepCtx(ctx context.Context, d time.Duration) error {
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
