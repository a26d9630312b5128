package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"hotgauge/internal/obs"
)

// Triage policy constants. The severity threshold is the paper's
// mitigation point — sev ≥ 0.5 means "mitigation required now" — and the
// guard band / audit fraction defaults are what Config.TriageBand and
// Config.AuditFrac resolve to when zero.
const (
	// DefaultSeverityThreshold is the severity at which a run counts as a
	// hotspot for triage purposes (sev = 0.5, the immediate-mitigation
	// point of the paper's severity scale).
	DefaultSeverityThreshold = 0.5
	// DefaultTriageBand is the guard band below the threshold within
	// which predicted runs are exact-verified anyway.
	DefaultTriageBand = 0.1
	// DefaultAuditFraction is the fraction of confidently-skippable runs
	// that execute exactly regardless, to measure predicted-vs-exact
	// error.
	DefaultAuditFraction = 0.1
	// DefaultMinConfidence is the prediction confidence below which the
	// prediction is distrusted and the run executes exactly.
	DefaultMinConfidence = 0.5
)

// Prediction is a surrogate model's estimate for one run.
type Prediction struct {
	// Severity is the predicted peak hotspot severity over the run
	// (clipped to [0, 1] like the exact metric).
	Severity float64 `json:"severity"`
	// TUHSeconds is the predicted time-until-hotspot [s]; negative means
	// no hotspot is predicted within the run.
	TUHSeconds float64 `json:"tuh_seconds"`
	// Confidence is the model's self-assessed reliability in [0, 1]:
	// near 1 when the query sits on top of dense, internally consistent
	// training data, falling toward 0 as the model extrapolates.
	Confidence float64 `json:"confidence"`
}

// Predictor scores a config without running the pipeline. Implementations
// must be safe for concurrent use (one Triager may serve concurrent
// jobs) and deterministic: the same config must always yield the
// same prediction. internal/surrogate provides the stock implementation.
type Predictor interface {
	Predict(cfg Config) (Prediction, error)
}

// TriageDecision is the outcome of scoring one config.
type TriageDecision struct {
	// Prediction is the surrogate's estimate (nil when prediction
	// failed and the run falls back to exact execution).
	Prediction *Prediction
	// ExactRun reports whether the full pipeline must execute.
	ExactRun bool
	// Audit marks an exact run selected only by the audit fraction: its
	// exact result is compared against the prediction to measure error.
	Audit bool
	// Reason explains the decision: "frontier" (predicted severity within
	// the guard band of the threshold), "low_confidence", "audit",
	// "predict_error", or "skip" (predicted-only).
	Reason string
}

// Triager applies the triage policy and accounts for its outcomes: it
// resolves per-config guard bands and audit fractions, records the
// surrogate/* metrics, and accumulates the predicted-vs-exact audit
// error. Safe for concurrent use; one Triager may span many campaigns
// (the daemon holds one for its lifetime).
//
// Callers drive one sequence per surrogate-flagged config: Score it;
// if the decision is not ExactRun, PredictedResult stands in for the
// run; otherwise execute it and, for an audit pick, pass the exact peak
// severity to ObserveAudit.
type Triager struct {
	predictor Predictor

	predictions, predictErrors *obs.Counter
	exactRuns, skippedRuns     *obs.Counter
	auditRuns                  *obs.Counter
	auditErrG                  *obs.Gauge

	mu       sync.Mutex
	auditSum float64
	auditN   int
}

// NewTriager builds a Triager scoring with p and recording into reg (nil
// disables metrics).
func NewTriager(p Predictor, reg *obs.Registry) *Triager {
	return &Triager{
		predictor:     p,
		predictions:   reg.Counter(MetricSurrogatePredictions),
		predictErrors: reg.Counter(MetricSurrogatePredictErrors),
		exactRuns:     reg.Counter(MetricSurrogateExactRuns),
		skippedRuns:   reg.Counter(MetricSurrogateSkippedRuns),
		auditRuns:     reg.Counter(MetricSurrogateAuditRuns),
		auditErrG:     reg.Gauge(MetricSurrogateAuditError),
	}
}

// Score applies the triage policy to one config. The policy is one-sided
// and conservative: a run executes exactly when its predicted severity
// reaches DefaultSeverityThreshold − band (every predicted hotspot, plus
// the guard band below it), when the prediction's confidence is below
// DefaultMinConfidence, when prediction fails outright, or when the
// config's deterministic audit draw selects it. Only runs the model
// confidently places clearly below the threshold are skipped.
func (t *Triager) Score(cfg Config) TriageDecision {
	p, err := t.predictor.Predict(cfg)
	if err != nil {
		t.predictErrors.Inc()
		t.exactRuns.Inc()
		return TriageDecision{ExactRun: true, Reason: "predict_error"}
	}
	t.predictions.Inc()
	band, frac := resolveTriageKnobs(cfg.TriageBand, cfg.AuditFrac)
	d := TriageDecision{Prediction: &p}
	switch {
	case p.Confidence < DefaultMinConfidence:
		d.ExactRun, d.Reason = true, "low_confidence"
	case p.Severity >= DefaultSeverityThreshold-band:
		d.ExactRun, d.Reason = true, "frontier"
	case auditSelect(cfg, frac):
		d.ExactRun, d.Audit, d.Reason = true, true, "audit"
	default:
		d.Reason = "skip"
	}
	if d.ExactRun {
		t.exactRuns.Inc()
		if d.Audit {
			t.auditRuns.Inc()
		}
	} else {
		t.skippedRuns.Inc()
	}
	return d
}

// PredictedResult materializes a predicted-only Result for a skipped
// run: no series, StepsRun 0, Predicted set, with the prediction
// attached. TUH mirrors the prediction (+Inf when no hotspot is
// predicted) so downstream consumers read it uniformly.
func (t *Triager) PredictedResult(cfg Config, d TriageDecision) *Result {
	res := &Result{Config: cfg, Predicted: true, Prediction: d.Prediction, TUH: math.Inf(1), TUHStep: -1}
	if d.Prediction != nil && d.Prediction.TUHSeconds >= 0 {
		res.TUH = d.Prediction.TUHSeconds
	}
	return res
}

// ObserveAudit scores an audit-selected decision's prediction against
// the run's exact peak severity, folding |predicted − exact| into the
// running audit MAE (exposed as the surrogate/audit_error gauge). It
// returns the absolute error and whether the decision was scored: only
// audited decisions carrying a prediction are.
func (t *Triager) ObserveAudit(d TriageDecision, exactPeak float64) (absErr float64, scored bool) {
	if !d.Audit || d.Prediction == nil {
		return 0, false
	}
	absErr = math.Abs(d.Prediction.Severity - exactPeak)
	t.mu.Lock()
	t.auditSum += absErr
	t.auditN++
	mae := t.auditSum / float64(t.auditN)
	t.mu.Unlock()
	t.auditErrG.Set(mae)
	return absErr, true
}

// AuditMAE returns the mean absolute predicted-vs-exact severity error
// over the audited runs observed so far, and how many there were.
func (t *Triager) AuditMAE() (mae float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.auditN == 0 {
		return 0, 0
	}
	return t.auditSum / float64(t.auditN), t.auditN
}

// resolveTriageKnobs maps Config.TriageBand and Config.AuditFrac to the
// values the policy applies: zero selects the default, a negative value
// disables the band or the audit draw, and the audit fraction is capped
// at 1. A disabled band resolves to 0, which would read as the default
// if resolved again, so Score takes the config as submitted, never a
// normalized copy.
func resolveTriageKnobs(band, frac float64) (float64, float64) {
	if band == 0 {
		band = DefaultTriageBand
	} else if band < 0 {
		band = 0
	}
	if frac == 0 {
		frac = DefaultAuditFraction
	} else if frac < 0 {
		frac = 0
	}
	return band, min(frac, 1)
}

// auditSelect makes the deterministic audit draw for a config: the
// config's content hash is folded to a uniform value in [0, 1) and
// compared against the audit fraction, so the same config is always
// audited (or not) regardless of submission order, process, or node. A
// config that cannot hash is conservatively selected — it will execute
// exactly.
func auditSelect(cfg Config, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	h, err := cfg.Hash()
	if err != nil {
		return true
	}
	f := fnv.New64a()
	fmt.Fprintf(f, "audit/%s", h)
	const span = 1 << 53
	u := float64(f.Sum64()%span) / float64(span)
	return u < frac
}
