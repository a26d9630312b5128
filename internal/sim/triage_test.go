package sim

import (
	"errors"
	"math"
	"testing"

	"hotgauge/internal/obs"
)

// fakePredictor returns canned predictions keyed by ambient temperature
// (a convenient scalar the tests can vary per config).
type fakePredictor struct {
	byAmbient map[float64]Prediction
	err       error
}

func (f *fakePredictor) Predict(cfg Config) (Prediction, error) {
	if f.err != nil {
		return Prediction{}, f.err
	}
	p, ok := f.byAmbient[cfg.Ambient]
	if !ok {
		return Prediction{Severity: 0, TUHSeconds: -1, Confidence: 1}, nil
	}
	return p, nil
}

func TestTriageScoreReasons(t *testing.T) {
	pred := &fakePredictor{byAmbient: map[float64]Prediction{
		41: {Severity: 0.9, TUHSeconds: 0.001, Confidence: 0.95}, // hotspot
		42: {Severity: 0.45, TUHSeconds: -1, Confidence: 0.95},   // inside guard band
		43: {Severity: 0.1, TUHSeconds: -1, Confidence: 0.2},     // low confidence
		44: {Severity: 0.1, TUHSeconds: -1, Confidence: 0.95},    // clear skip
	}}
	tr := NewTriager(pred, nil)

	cases := []struct {
		ambient   float64
		exact     bool
		reason    string
		auditFrac float64
	}{
		{41, true, "frontier", -1},
		{42, true, "frontier", -1},
		{43, true, "low_confidence", -1},
		{44, false, "skip", -1},
	}
	for _, c := range cases {
		cfg := fastConfig(t, "gcc", 5)
		cfg.Ambient = c.ambient
		cfg.Surrogate = true
		cfg.AuditFrac = c.auditFrac // negative disables the audit draw
		d := tr.Score(cfg)
		if d.ExactRun != c.exact || d.Reason != c.reason {
			t.Errorf("ambient %.0f: got (exact=%v, reason=%q), want (exact=%v, reason=%q)",
				c.ambient, d.ExactRun, d.Reason, c.exact, c.reason)
		}
		if d.Prediction == nil {
			t.Errorf("ambient %.0f: decision lost its prediction", c.ambient)
		}
	}

	// Score and Config.normalize resolve the knobs through one helper: a
	// disabled band and an over-range audit fraction decide a config the
	// same way as its normalized copy (fraction capped at 1: an audit).
	raw := fastConfig(t, "gcc", 5)
	raw.Ambient = 44
	raw.Surrogate = true
	raw.TriageBand, raw.AuditFrac = -1, 2
	norm := raw
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	if norm.AuditFrac != 1 {
		t.Fatalf("normalized AuditFrac = %v, want 1", norm.AuditFrac)
	}
	dRaw, dNorm := tr.Score(raw), tr.Score(norm)
	if dRaw.ExactRun != dNorm.ExactRun || dRaw.Audit != dNorm.Audit || dRaw.Reason != dNorm.Reason || dRaw.Reason != "audit" {
		t.Fatalf("band -1, frac 2: raw decision %+v, normalized %+v, want both \"audit\"", dRaw, dNorm)
	}
}

func TestTriageScorePredictError(t *testing.T) {
	tr := NewTriager(&fakePredictor{err: errors.New("boom")}, nil)
	cfg := fastConfig(t, "gcc", 5)
	cfg.Surrogate = true
	d := tr.Score(cfg)
	if !d.ExactRun || d.Reason != "predict_error" || d.Prediction != nil {
		t.Fatalf("predict failure must fall back to exact: %+v", d)
	}
}

func TestAuditSelectDeterministic(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Surrogate = true
	first := auditSelect(cfg, 0.5)
	for i := 0; i < 10; i++ {
		if auditSelect(cfg, 0.5) != first {
			t.Fatal("audit draw varies across calls for the same config")
		}
	}
	if auditSelect(cfg, 0) {
		t.Error("zero fraction selected a run")
	}
	if !auditSelect(cfg, 1) {
		t.Error("fraction 1 skipped a run")
	}

	// Over many distinct configs the draw rate should track the fraction.
	hits := 0
	const n, frac = 400, 0.25
	for i := 0; i < n; i++ {
		c := cfg
		c.Ambient = 40 + float64(i)*0.01
		if auditSelect(c, frac) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < frac/2 || rate > frac*2 {
		t.Fatalf("audit rate %.3f far from fraction %.2f", rate, frac)
	}
}

func TestPredictedResultShape(t *testing.T) {
	tr := NewTriager(&fakePredictor{}, nil)
	cfg := fastConfig(t, "gcc", 5)

	p := Prediction{Severity: 0.2, TUHSeconds: -1, Confidence: 0.9}
	res := tr.PredictedResult(cfg, TriageDecision{Prediction: &p})
	if !res.Predicted || res.StepsRun != 0 || len(res.Severity) != 0 {
		t.Fatalf("predicted result ran the pipeline: %+v", res)
	}
	if !math.IsInf(res.TUH, 1) || res.TUHStep != -1 {
		t.Fatalf("no-hotspot prediction must leave TUH at +Inf: TUH=%v step=%d", res.TUH, res.TUHStep)
	}

	p2 := Prediction{Severity: 0.8, TUHSeconds: 0.0025, Confidence: 0.9}
	res2 := tr.PredictedResult(cfg, TriageDecision{Prediction: &p2})
	if res2.TUH != 0.0025 {
		t.Fatalf("predicted TUH not propagated: %v", res2.TUH)
	}
}

func TestObserveAuditError(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTriager(&fakePredictor{}, reg)

	p := Prediction{Severity: 0.3, TUHSeconds: -1, Confidence: 0.9}
	absErr, scored := tr.ObserveAudit(TriageDecision{Prediction: &p, Audit: true, ExactRun: true}, 0.45)
	if !scored || math.Abs(absErr-0.15) > 1e-12 {
		t.Fatalf("audit error = %v (scored=%v), want 0.15", absErr, scored)
	}
	mae, n := tr.AuditMAE()
	if n != 1 || math.Abs(mae-0.15) > 1e-12 {
		t.Fatalf("AuditMAE = (%v, %d)", mae, n)
	}
	if got := reg.Snapshot().Gauges[MetricSurrogateAuditError]; math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("%s = %v, want 0.15", MetricSurrogateAuditError, got)
	}

	// Non-audit decisions, and decisions without a prediction, are not
	// scored and leave the MAE untouched.
	if _, scored := tr.ObserveAudit(TriageDecision{Prediction: &p, ExactRun: true}, 0.9); scored {
		t.Fatal("non-audit run was scored")
	}
	if _, scored := tr.ObserveAudit(TriageDecision{Audit: true, ExactRun: true}, 0.9); scored {
		t.Fatal("audit decision without a prediction was scored")
	}
	if mae, n := tr.AuditMAE(); n != 1 || math.Abs(mae-0.15) > 1e-12 {
		t.Fatalf("unscored observations moved AuditMAE to (%v, %d)", mae, n)
	}
}

func TestHashUnchangedByInertTriageKnobs(t *testing.T) {
	base := fastConfig(t, "gcc", 5)
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Without Surrogate the triage knobs are normalized away and must not
	// perturb the content hash of existing stored results.
	knobbed := base
	knobbed.TriageBand = 0.2
	knobbed.AuditFrac = 0.5
	h2, err := knobbed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("inert triage knobs changed the config hash")
	}

	sur := base
	sur.Surrogate = true
	h3, err := sur.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("Surrogate flag did not change the config hash")
	}
	band := sur
	band.TriageBand = 0.2
	h4, err := band.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h3 {
		t.Fatal("TriageBand did not change a surrogate config's hash")
	}
}
