package sim

import (
	"context"
	"errors"
	"testing"

	"hotgauge/internal/geometry"
)

// cancelAfter is a Controller that cancels the run's context after a
// given number of completed steps — a deterministic way to cancel "in
// the middle" of a run without racing a timer against the step loop.
type cancelAfter struct {
	steps  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Control(step int, _ *geometry.Field, _ int) Directive {
	if step+1 >= c.steps {
		c.cancel()
	}
	return Directive{MigrateTo: -1}
}

func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, fastConfig(t, "gcc", 5))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on cancelled ctx: res=%v err=%v, want nil, context.Canceled", res, err)
	}
}

func TestRunCtxCancelsBetweenSteps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastConfig(t, "gcc", 50)
	cfg.Controller = &cancelAfter{steps: 2, cancel: cancel}
	res, err := RunCtx(ctx, cfg)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run: res=%v err=%v, want nil, context.Canceled", res, err)
	}
}

func TestRunDelegatesToRunCtx(t *testing.T) {
	res, err := Run(fastConfig(t, "gcc", 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 3 {
		t.Fatalf("StepsRun = %d, want 3", res.StepsRun)
	}
}
