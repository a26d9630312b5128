package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"hotgauge/internal/core"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// Hash returns a canonical, deterministic content hash of the normalized
// configuration: two configs that would produce the same Result hash
// identically (defaults filled in, map keys sorted, instrumentation
// ignored), and any semantically meaningful field tweak changes the
// hash. It is the content address used by the serving layer's result
// cache.
//
// Configs carrying opaque behaviour the hash cannot canonically
// represent — a custom perf.Source, a Controller, or a thermal.Solver
// other than Explicit/ADI — are rejected with an error, as is any
// config that fails validation. Config.Obs and solver tuning knobs that
// are proven result-neutral (Explicit.Workers runs bit-identical at any
// worker count) are excluded, as is the operational MaxWallTime budget
// (it changes when a run gives up, never what it computes).
func (c Config) Hash() (string, error) {
	b, err := c.canonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalConfig is the hashable projection of a normalized Config.
// Field order is fixed by the struct, maps are flattened to key-sorted
// slices, and floats round-trip through encoding/json's shortest
// representation, so equal values always serialize to equal bytes.
type canonicalConfig struct {
	Node           int               `json:"node"`
	KindScale      []kindScaleEntry  `json:"kind_scale,omitempty"`
	ICAreaFactor   float64           `json:"ic_area_factor"`
	CoreArea14     float64           `json:"core_area_14"`
	MirrorRight    bool              `json:"mirror_right"`
	RowShuffleSeed int64             `json:"row_shuffle_seed"`
	Workload       workload.Profile  `json:"workload"`
	SMTWorkload    *workload.Profile `json:"smt_workload,omitempty"`
	Core           int               `json:"core"`
	Warmup         string            `json:"warmup"`
	Steps          int               `json:"steps"`
	StopAtHotspot  bool              `json:"stop_at_hotspot"`
	Definition     core.Definition   `json:"definition"`
	Resolution     float64           `json:"resolution"`
	Ambient        float64           `json:"ambient"`
	UseCycleModel  bool              `json:"use_cycle_model"`
	CyclesPerStep  uint64            `json:"cycles_per_step"`
	Solver         string            `json:"solver"`
	Stack          []thermal.Layer   `json:"stack"`
	// StackPreset is omitted when empty so every single-die config keeps
	// its pre-existing content address; the preset's expanded Stack (with
	// its Active markers) also lands in the stack field above.
	StackPreset    string  `json:"stack_preset,omitempty"`
	SinkConduct    float64 `json:"sink_conductance"`
	DisableLeakage bool    `json:"disable_leakage_feedback"`
	// The steady-state fast-path fields are omitted when off, so every
	// pre-existing config keeps its content address.
	FastSteady      bool    `json:"fast_steady,omitempty"`
	FastSteadyAfter int     `json:"fast_steady_after,omitempty"`
	FastSteadyTol   float64 `json:"fast_steady_tol,omitempty"`
	// Surrogate triage fields are likewise omitted when off: a triaged
	// campaign's predicted-only payloads live at distinct content
	// addresses from exact results, while untriaged configs keep their
	// pre-existing hashes.
	Surrogate   bool              `json:"surrogate,omitempty"`
	TriageBand  float64           `json:"triage_band,omitempty"`
	AuditFrac   float64           `json:"audit_frac,omitempty"`
	Record      canonicalRecord   `json:"record"`
	Assignments []assignmentEntry `json:"assignments,omitempty"`
}

type kindScaleEntry struct {
	Kind  string  `json:"kind"`
	Scale float64 `json:"scale"`
}

type assignmentEntry struct {
	Core    int              `json:"core"`
	Profile workload.Profile `json:"profile"`
}

// canonicalRecord mirrors RecordOptions with UnitSeverity sorted (the
// request order only affects map key insertion, never the recorded
// series, so it must not leak into the hash; duplicates do change the
// result and are kept).
type canonicalRecord struct {
	MLTD            bool     `json:"mltd"`
	Severity        bool     `json:"severity"`
	CellDeltas      bool     `json:"cell_deltas"`
	TempPercentiles bool     `json:"temp_percentiles"`
	FieldEvery      int      `json:"field_every"`
	HotspotUnits    bool     `json:"hotspot_units"`
	UnitSeverity    []string `json:"unit_severity,omitempty"`
}

func (c Config) canonicalJSON() ([]byte, error) {
	if c.Source != nil {
		return nil, fmt.Errorf("sim: config with a custom Source is not hashable")
	}
	if c.Controller != nil {
		return nil, fmt.Errorf("sim: config with a Controller is not hashable")
	}
	cc := c // shallow copy: normalize fills defaults without touching c
	cc.Obs = nil
	// The checkpoint seam is operational, like MaxWallTime: it changes
	// how a run survives interruption, never what it computes (resumed
	// explicit-solver runs are pinned bit-identical), so it must not
	// perturb the content address.
	cc.Checkpoint = nil
	cc.CheckpointEvery = 0
	if err := cc.normalize(); err != nil {
		return nil, err
	}
	solver, err := canonicalSolver(cc.Solver)
	if err != nil {
		return nil, err
	}

	can := canonicalConfig{
		Node:            int(cc.Floorplan.Node),
		ICAreaFactor:    cc.Floorplan.ICAreaFactor,
		CoreArea14:      cc.Floorplan.CoreArea14,
		MirrorRight:     cc.Floorplan.MirrorRight,
		RowShuffleSeed:  cc.Floorplan.RowShuffleSeed,
		Workload:        cc.Workload,
		SMTWorkload:     cc.SMTWorkload,
		Core:            cc.Core,
		Warmup:          cc.Warmup.String(),
		Steps:           cc.Steps,
		StopAtHotspot:   cc.StopAtHotspot,
		Definition:      cc.Definition,
		Resolution:      cc.Resolution,
		Ambient:         cc.Ambient,
		UseCycleModel:   cc.UseCycleModel,
		CyclesPerStep:   cc.CyclesPerStep,
		Solver:          solver,
		Stack:           cc.Stack,
		StackPreset:     cc.StackPreset,
		SinkConduct:     cc.SinkConductance,
		DisableLeakage:  cc.DisableLeakageFeedback,
		FastSteady:      cc.FastSteady,
		FastSteadyAfter: cc.FastSteadyAfter,
		FastSteadyTol:   cc.FastSteadyTol,
		Surrogate:       cc.Surrogate,
		TriageBand:      cc.TriageBand,
		AuditFrac:       cc.AuditFrac,
		Record: canonicalRecord{
			MLTD:            cc.Record.MLTD,
			Severity:        cc.Record.Severity,
			CellDeltas:      cc.Record.CellDeltas,
			TempPercentiles: cc.Record.TempPercentiles,
			FieldEvery:      cc.Record.FieldEvery,
			HotspotUnits:    cc.Record.HotspotUnits,
		},
	}
	if n := len(cc.Record.UnitSeverity); n > 0 {
		us := make([]string, n)
		copy(us, cc.Record.UnitSeverity)
		sort.Strings(us)
		can.Record.UnitSeverity = us
	}
	for kind, scale := range cc.Floorplan.KindScale {
		can.KindScale = append(can.KindScale, kindScaleEntry{Kind: string(kind), Scale: scale})
	}
	sort.Slice(can.KindScale, func(i, j int) bool { return can.KindScale[i].Kind < can.KindScale[j].Kind })
	for coreIdx, prof := range cc.Assignments {
		can.Assignments = append(can.Assignments, assignmentEntry{Core: coreIdx, Profile: prof})
	}
	sort.Slice(can.Assignments, func(i, j int) bool { return can.Assignments[i].Core < can.Assignments[j].Core })

	return json.Marshal(can)
}

// canonicalSolver maps a solver to its hash token. Only the stock
// solvers are representable: Explicit hashes by name alone (its Workers
// knob is bit-identical at any value, and its counters are
// instrumentation), while ADI includes the knobs that change its
// numerics, with the documented defaults filled in.
func canonicalSolver(s thermal.Solver) (string, error) {
	switch sv := s.(type) {
	case *thermal.Explicit:
		return "explicit", nil
	case *thermal.ADI:
		tol, maxSub := sv.ErrTol, sv.MaxSubsteps
		if tol <= 0 {
			tol = 0.1
		}
		if maxSub <= 0 {
			maxSub = 64
		}
		return fmt.Sprintf("adi/tol=%g,maxsub=%d", tol, maxSub), nil
	default:
		return "", fmt.Errorf("sim: solver %T is not hashable (only thermal.Explicit/ADI are)", s)
	}
}
