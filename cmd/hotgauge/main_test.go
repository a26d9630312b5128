package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/workload"
)

func TestParseScale(t *testing.T) {
	m, err := parseScale("fpIWin=10,RAT_INT=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if m[floorplan.KindFpIWin] != 10 || m[floorplan.Kind("RAT_INT")] != 2.5 {
		t.Fatalf("parsed %v", m)
	}
	if m, err := parseScale(""); err != nil || m != nil {
		t.Fatalf("empty scale: %v %v", m, err)
	}
	for _, bad := range []string{"fpIWin", "fpIWin=", "fpIWin=abc", "=3"} {
		if _, err := parseScale(bad); err == nil && bad != "=3" {
			t.Errorf("bad entry %q accepted", bad)
		}
	}
}

// fixedPredictor predicts the same outcome for every config.
type fixedPredictor sim.Prediction

func (f fixedPredictor) Predict(sim.Config) (sim.Prediction, error) { return sim.Prediction(f), nil }

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := f()
	os.Stdout = orig
	w.Close()
	printed := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("execute: %v\noutput:\n%s", runErr, printed)
	}
	return printed
}

// TestExecuteTriage drives the -surrogate path through execute with a
// fake predictor, one case per triage outcome.
func TestExecuteTriage(t *testing.T) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	newCfg := func() sim.Config {
		return sim.Config{
			Floorplan:  floorplan.Config{Node: tech.Node7},
			Workload:   prof,
			Steps:      4,
			Resolution: 0.2,
			Record:     sim.RecordOptions{MLTD: true, Severity: true},
			Obs:        obs.NewRegistry(),
		}
	}
	cold := fixedPredictor{Severity: 0.1, TUHSeconds: -1, Confidence: 0.95}

	t.Run("cold resolves predicted-only", func(t *testing.T) {
		cfg := newCfg()
		out := captureStdout(t, func() error {
			return execute(options{auditFrac: -1}, cfg, cold)
		})
		if !strings.Contains(out, "resolved by surrogate prediction") {
			t.Fatalf("no predicted-only summary:\n%s", out)
		}
		snap := cfg.Obs.Snapshot()
		if got := snap.Counters[sim.MetricRuns]; got != 0 {
			t.Fatalf("%s = %d, want 0 (nothing simulated)", sim.MetricRuns, got)
		}
		if got := snap.Counters[sim.MetricSurrogateSkippedRuns]; got != 1 {
			t.Fatalf("%s = %d, want 1", sim.MetricSurrogateSkippedRuns, got)
		}
	})

	t.Run("frontier simulates exactly", func(t *testing.T) {
		cfg := newCfg()
		hot := fixedPredictor{Severity: 0.9, TUHSeconds: 1e-3, Confidence: 0.95}
		out := captureStdout(t, func() error { return execute(options{}, cfg, hot) })
		if got := cfg.Obs.Snapshot().Counters[sim.MetricRuns]; got != 1 {
			t.Fatalf("%s = %d, want 1", sim.MetricRuns, got)
		}
		if !strings.Contains(out, "surrogate: predicted severity 0.900 vs exact ") {
			t.Fatalf("no predicted-vs-exact line:\n%s", out)
		}
		// The exact branch prints the plain run's report, then the
		// prediction line.
		plain := captureStdout(t, func() error { return execute(options{}, newCfg(), nil) })
		if !strings.HasPrefix(out, plain) {
			t.Fatalf("triaged exact report does not start with the plain report:\n%s\nplain:\n%s", out, plain)
		}
	})

	t.Run("audit pick scores the error", func(t *testing.T) {
		cfg := newCfg()
		out := captureStdout(t, func() error { return execute(options{auditFrac: 1}, cfg, cold) })
		var pred, exact float64
		i := strings.Index(out, "surrogate: ")
		if i < 0 {
			t.Fatalf("audit pick did not simulate exactly:\n%s", out)
		}
		if _, err := fmt.Sscanf(out[i:], "surrogate: predicted severity %g vs exact %g", &pred, &exact); err != nil {
			t.Fatalf("parse prediction line: %v\n%s", err, out[i:])
		}
		snap := cfg.Obs.Snapshot()
		if got := snap.Counters[sim.MetricSurrogateAuditRuns]; got != 1 {
			t.Fatalf("%s = %d, want 1", sim.MetricSurrogateAuditRuns, got)
		}
		// The printed values are rounded to 3 decimals.
		if got, want := snap.Gauges[sim.MetricSurrogateAuditError], math.Abs(pred-exact); math.Abs(got-want) > 1e-3 {
			t.Fatalf("%s = %v, want ≈ %v", sim.MetricSurrogateAuditError, got, want)
		}
	})
}
