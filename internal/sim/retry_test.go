package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"hotgauge/internal/fault"
	"hotgauge/internal/obs"
	"hotgauge/internal/perf"
	"hotgauge/internal/thermal"
)

func TestRunCtxRecoversPanic(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(t, "gcc", 5)
	cfg.Obs = reg
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, PanicAt: 1}

	res, err := Run(cfg)
	if res != nil {
		t.Fatal("panicking run returned a result")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("panic value lost: %v", err)
	}
	if got := reg.Snapshot().Counters[MetricPanics]; got != 1 {
		t.Fatalf("sim/panics = %d, want 1", got)
	}
}

func TestRunCtxPanicInSource(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Source = &fault.FlakySource{Inner: nopSource{}, PanicAt: 2}
	_, err := Run(cfg)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("source panic not isolated: %v (%T)", err, err)
	}
}

// nopSource is an idle-activity source for panic-path tests.
type nopSource struct{}

func (nopSource) Step(step int, cycles uint64) perf.Activity {
	return perf.IdleActivity(perf.DefaultConfig())
}

func TestRunMaxWallTime(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(t, "gcc", 50)
	cfg.Obs = reg
	cfg.MaxWallTime = 10 * time.Millisecond
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, StallAt: 1, Stall: 100 * time.Millisecond}

	_, err := Run(cfg)
	var te *RunTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T), want *RunTimeoutError", err, err)
	}
	if te.Limit != cfg.MaxWallTime {
		t.Fatalf("timeout limit %v, want %v", te.Limit, cfg.MaxWallTime)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("run timeout must not read as a campaign-level DeadlineExceeded")
	}
	if got := reg.Snapshot().Counters[MetricTimeouts]; got != 1 {
		t.Fatalf("sim/timeouts = %d, want 1", got)
	}
}

func TestSolverDivergenceDetected(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, NaNAt: 2}
	_, err := Run(cfg)
	var de *SolverDivergedError
	if !errors.As(err, &de) {
		t.Fatalf("error %v (%T), want *SolverDivergedError", err, err)
	}
	if de.Step != 1 {
		t.Fatalf("divergence attributed to step %d, want 1", de.Step)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"wrapped canceled", fmt.Errorf("run 3: %w", context.Canceled), false},
		{"panic", &PanicError{Value: "x"}, false},
		{"run timeout", &RunTimeoutError{Limit: time.Second}, false},
		{"transient", &fault.Error{Call: 1}, true},
		{"wrapped transient", fmt.Errorf("step 4: %w", &fault.Error{Call: 1}), true},
		{"diverged", &SolverDivergedError{Step: 0, Solver: "explicit"}, true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRunWithRetryFakeClock(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(t, "gcc", 3)
	cfg.Obs = reg
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, FailFirst: 2}

	var delays []time.Duration
	p := RetryPolicy{
		MaxAttempts: 4,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}
	res, err := RunWithRetry(context.Background(), cfg, p)
	if err != nil {
		t.Fatalf("retry did not recover a transient failure: %v", err)
	}
	if res == nil || res.StepsRun != 3 {
		t.Fatalf("unexpected result %+v", res)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2 (two retries)", len(delays))
	}
	// Exponential with jitter in [0.5, 1.5): attempt 1 backs off from
	// retryBaseDelay, attempt 2 from twice that.
	bounds := []struct{ lo, hi time.Duration }{
		{retryBaseDelay / 2, retryBaseDelay * 3 / 2},
		{retryBaseDelay, retryBaseDelay * 3},
	}
	for i, d := range delays {
		if d < bounds[i].lo || d >= bounds[i].hi {
			t.Errorf("delay %d = %v outside [%v, %v)", i, d, bounds[i].lo, bounds[i].hi)
		}
	}
	if got := reg.Snapshot().Counters[MetricRetries]; got != 2 {
		t.Fatalf("sim/retries = %d, want 2", got)
	}

	// Determinism: every run draws the same jittered delays.
	var again []time.Duration
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		again = append(again, d)
		return nil
	}
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, FailFirst: 2}
	if _, err := RunWithRetry(context.Background(), cfg, p); err != nil {
		t.Fatal(err)
	}
	for i := range delays {
		if delays[i] != again[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", delays, again)
		}
	}
}

func TestRunWithRetryExhaustsAttempts(t *testing.T) {
	cfg := fastConfig(t, "gcc", 3)
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, FailFirst: 100}
	p := RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	_, err := RunWithRetry(context.Background(), cfg, p)
	if err == nil {
		t.Fatal("permanently failing run reported success")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("underlying cause lost: %v", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("attempt count missing from %v", err)
	}
}

func TestRunWithRetryNonRetryableFailsFast(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(t, "gcc", 3)
	cfg.Obs = reg
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, PanicAt: 1}
	p := RetryPolicy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, d time.Duration) error {
			t.Fatal("non-retryable failure must not back off")
			return nil
		},
	}
	_, err := RunWithRetry(context.Background(), cfg, p)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want *PanicError", err)
	}
	if got := reg.Snapshot().Counters[MetricRetries]; got != 0 {
		t.Fatalf("sim/retries = %d, want 0", got)
	}
}

// TestRunWithRetryExplicitFallback: a diverging explicit run is retried
// on a fresh ADI solver, so the recovered result must be exactly what a
// plain ADI run of the same config produces, series for series.
func TestRunWithRetryExplicitFallback(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(t, "gcc", 3)
	cfg.Record = RecordOptions{MLTD: true, Severity: true, TempPercentiles: true}
	cfg.Obs = reg
	flaky := &fault.FlakySolver{Inner: &thermal.Explicit{}, NaNAt: 1}
	cfg.Solver = flaky
	p := RetryPolicy{
		MaxAttempts: 2,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	res, err := RunWithRetry(context.Background(), cfg, p)
	if err != nil {
		t.Fatalf("fallback to the ADI solver did not recover: %v", err)
	}
	if res.Config.Solver != thermal.Solver(flaky) {
		t.Fatalf("Result.Config.Solver = %T, want the caller's original", res.Config.Solver)
	}
	if got := reg.Snapshot().Counters[MetricRetries]; got != 1 {
		t.Fatalf("sim/retries = %d, want 1", got)
	}

	plain := cfg
	plain.Obs = nil
	plain.Solver = &thermal.ADI{}
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	series := []struct {
		name      string
		got, want any
	}{
		{"MaxTemp", res.MaxTemp, want.MaxTemp},
		{"MeanTemp", res.MeanTemp, want.MeanTemp},
		{"Power", res.Power, want.Power},
		{"MLTD", res.MLTD, want.MLTD},
		{"Severity", res.Severity, want.Severity},
		{"TempPcts", res.TempPcts, want.TempPcts},
		{"FinalField", res.FinalField.Data, want.FinalField.Data},
	}
	for _, s := range series {
		if !reflect.DeepEqual(s.got, s.want) {
			t.Errorf("%s after fallback differs from a plain ADI run:\n got  %v\n want %v", s.name, s.got, s.want)
		}
	}
}

func TestCampaignIsolatesFaults(t *testing.T) {
	reg := obs.NewRegistry()
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = fastConfig(t, "gcc", 3)
	}
	cfgs[2].Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, PanicAt: 1}
	cfgs[4].MaxWallTime = 5 * time.Millisecond
	cfgs[4].Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, StallAt: 1, Stall: 100 * time.Millisecond}

	results, err := CampaignOpts(cfgs, CampaignOptions{Obs: reg, Workers: 3})
	if err == nil {
		t.Fatal("campaign with faulted runs reported no error")
	}
	for i, r := range results {
		switch i {
		case 2, 4:
			if r != nil {
				t.Errorf("faulted run %d returned a result", i)
			}
		default:
			if r == nil || r.StepsRun != 3 {
				t.Errorf("healthy run %d did not complete: %+v", i, r)
			}
		}
	}
	if !strings.Contains(err.Error(), "run 2") || !strings.Contains(err.Error(), "run 4") {
		t.Fatalf("joined error misattributes failures: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricPanics] != 1 {
		t.Fatalf("sim/panics = %d, want 1", snap.Counters[MetricPanics])
	}
	if snap.Counters[MetricTimeouts] != 1 {
		t.Fatalf("sim/timeouts = %d, want 1", snap.Counters[MetricTimeouts])
	}
}

func TestResultConfigPristineRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(t, "gcc", 3)
	cfg.Obs = reg // triggers the obs-wired solver injection path

	wantHash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Solver != nil {
		t.Fatalf("Result.Config.Solver = %T, want nil as submitted (injected solver leaked)", res.Config.Solver)
	}
	gotHash, err := res.Config.Hash()
	if err != nil {
		t.Fatalf("Result.Config no longer hashable: %v", err)
	}
	if gotHash != wantHash {
		t.Fatalf("Result.Config hash %s != submitted %s", gotHash[:12], wantHash[:12])
	}
	// And the returned config must be runnable as-is.
	if _, err := Run(res.Config); err != nil {
		t.Fatalf("Result.Config not resubmittable: %v", err)
	}
}
