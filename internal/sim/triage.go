package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"hotgauge/internal/obs"
)

// Default triage policy knobs. The severity threshold is the paper's
// mitigation point — sev ≥ 0.5 means "mitigation required now" — and the
// guard band / audit fraction defaults match Config.TriageBand and
// Config.AuditFrac.
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
// must be safe for concurrent use (campaigns score from worker
// goroutines) and deterministic: the same config must always yield the
// same prediction. internal/surrogate provides the stock implementation.
type Predictor interface {
	Predict(cfg Config) (Prediction, error)
}

// TriageOptions configures predict-first campaign triage (see
// CampaignOptions.Triage).
type TriageOptions struct {
	// Predictor scores configs; nil disables triage entirely.
	Predictor Predictor
	// Threshold is the severity classifying a run as a hotspot
	// (0 = DefaultSeverityThreshold).
	Threshold float64
	// MinConfidence is the confidence below which a prediction is
	// distrusted and the run executes exactly (0 = DefaultMinConfidence).
	MinConfidence float64
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
type Triager struct {
	opts TriageOptions

	predictions, predictErrors *obs.Counter
	exactRuns, skippedRuns     *obs.Counter
	auditRuns                  *obs.Counter
	auditErrG                  *obs.Gauge

	mu       sync.Mutex
	auditSum float64
	auditN   int
}

// NewTriager builds a Triager recording into reg (nil disables metrics).
func NewTriager(opts TriageOptions, reg *obs.Registry) *Triager {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultSeverityThreshold
	}
	if opts.MinConfidence <= 0 {
		opts.MinConfidence = DefaultMinConfidence
	}
	return &Triager{
		opts:          opts,
		predictions:   reg.Counter(MetricSurrogatePredictions),
		predictErrors: reg.Counter(MetricSurrogatePredictErrors),
		exactRuns:     reg.Counter(MetricSurrogateExactRuns),
		skippedRuns:   reg.Counter(MetricSurrogateSkippedRuns),
		auditRuns:     reg.Counter(MetricSurrogateAuditRuns),
		auditErrG:     reg.Gauge(MetricSurrogateAuditError),
	}
}

// Threshold returns the resolved hotspot-severity threshold.
func (t *Triager) Threshold() float64 { return t.opts.Threshold }

// Score applies the triage policy to one config. The policy is one-sided
// and conservative: a run executes exactly when its predicted severity
// reaches threshold − band (every predicted hotspot, plus the guard band
// below it), when the prediction's confidence is below MinConfidence,
// when prediction fails outright, or when the config's deterministic
// audit draw selects it. Only runs the model confidently places clearly
// below the threshold are skipped.
func (t *Triager) Score(cfg Config) TriageDecision {
	p, err := t.opts.Predictor.Predict(cfg)
	if err != nil {
		t.predictErrors.Inc()
		t.exactRuns.Inc()
		return TriageDecision{ExactRun: true, Reason: "predict_error"}
	}
	t.predictions.Inc()
	band := cfg.TriageBand
	if band == 0 {
		band = DefaultTriageBand
	} else if band < 0 {
		band = 0
	}
	frac := cfg.AuditFrac
	if frac == 0 {
		frac = DefaultAuditFraction
	} else if frac < 0 {
		frac = 0
	}
	d := TriageDecision{Prediction: &p}
	switch {
	case p.Confidence < t.opts.MinConfidence:
		d.ExactRun, d.Reason = true, "low_confidence"
	case p.Severity >= t.opts.Threshold-band:
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

// ObserveExact attaches the decision's prediction to an exact result
// and, for audit-selected runs with a recorded severity series, scores
// the prediction against the exact peak severity (see ObserveAudit). It
// returns the absolute severity error and whether it was scored.
func (t *Triager) ObserveExact(d TriageDecision, res *Result) (absErr float64, scored bool) {
	if res == nil || d.Prediction == nil {
		return 0, false
	}
	res.Prediction = d.Prediction
	res.Audited = d.Audit
	if len(res.Severity) == 0 {
		return 0, false
	}
	exact := 0.0
	for _, s := range res.Severity {
		exact = math.Max(exact, s)
	}
	return t.ObserveAudit(d, exact)
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
