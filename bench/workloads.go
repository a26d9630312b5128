package main

import (
	"context"
	"math/rand/v2"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
)

// Every operation's inputs derive from (seed, operation index) alone, so
// a seed names the same input sequence on every commit and machine, and
// the program under test receives only the generated configs.

var (
	// profiles are the SPEC2006 profiles the Section-4A sweeps draw from.
	profiles = []string{"gcc", "namd", "milc", "hmmer", "bzip2", "gobmk", "lbm", "mcf"}
	nodes    = []int{7, 10, 14}
	// pairs is the number of (profile, core) choices.
	pairs = len(profiles) * floorplan.NumCores
)

const (
	// digestOps is how many leading inputs (configs or campaigns) have
	// their outputs digested and cross-checked between execution paths.
	digestOps = 8
	// warmupSeed seeds the untimed warm-up operation, so its cost does
	// not change with the measured seed.
	warmupSeed = 0
	// tuhSpecs is the run count of one campaign job.
	tuhSpecs = 4
	// tuhSteps is the step cap of a TUH run.
	tuhSteps = 60
)

// balanced picks operation i's (profile, core) pair so that any window of
// operations holds nearly the same mix on every seed: operations cycle
// over cells (a node, or a node and stack preset); within a cell, each
// block of len(profiles) consecutive visits holds every profile once, in
// a seeded order, and each profile's core rotates from block to block
// from a seeded offset, so each round of pairs visits holds every pair
// once. A drawn mix would move the metrics with the seed, because a
// run's cost depends on its node (about 4× from 7 to 14 nm) and its
// profile (the ADI solver substeps more through fast transients, and a
// TUH run stops at its first hotspot), and a run rarely covers a whole
// round of a cell. round counts the cell's completed rounds.
func balanced(seed uint64, i, cells int) (cell int, profile string, core, round int) {
	cell, visit := i%cells, i/cells
	round = visit / pairs
	block := visit % pairs / len(profiles)
	r := rand.New(rand.NewPCG(seed, uint64(cell)<<32|uint64(round)))
	orders := make([][]int, pairs/len(profiles))
	for b := range orders {
		orders[b] = r.Perm(len(profiles))
	}
	p := orders[block][visit%len(profiles)]
	offset := r.Perm(len(profiles))[p]
	return cell, profiles[p], (block + offset) % floorplan.NumCores, round
}

// sec4aSpec is a Section-4A temperature/MLTD/severity run: 100 ADI steps
// from the idle warmup, with the CLI's record set.
func sec4aSpec(seed uint64, i int) serve.ConfigSpec {
	cell, profile, core, _ := balanced(seed, i, len(nodes))
	return serve.ConfigSpec{
		Workload:           profile,
		Node:               nodes[cell],
		Core:               core,
		Steps:              100,
		Solver:             "adi",
		RecordMLTD:         true,
		RecordSeverity:     true,
		RecordHotspotUnits: true,
	}
}

// sec4aConfig adds the temperature-percentile series, which the wire
// spec cannot express.
func sec4aConfig(seed uint64, i int) (sim.Config, error) {
	cfg, err := sec4aSpec(seed, i).Config()
	cfg.Record.TempPercentiles = true
	return cfg, err
}

// stackedSpec is the same run over every node and stacked preset.
func stackedSpec(seed uint64, i int) serve.ConfigSpec {
	presets := sim.StackPresets()
	cell, profile, core, _ := balanced(seed, i, len(nodes)*len(presets))
	return serve.ConfigSpec{
		Workload:       profile,
		Node:           nodes[cell%len(nodes)],
		Core:           core,
		Steps:          100,
		Solver:         "adi",
		RecordMLTD:     true,
		RecordSeverity: true,
		Stack:          presets[cell/len(nodes)],
	}
}

func stackedConfig(seed uint64, i int) (sim.Config, error) { return stackedSpec(seed, i).Config() }

// tuhCampaign is campaign job i: tuhSpecs time-until-hotspot runs on the
// daemon's defaults (explicit solver, no series).
func tuhCampaign(seed uint64, i int) []serve.ConfigSpec {
	specs := make([]serve.ConfigSpec, tuhSpecs)
	for j := range specs {
		specs[j] = tuhSpec(seed, tuhSpecs*i+j)
	}
	return specs
}

// warmupCampaign has a step cap no measured spec uses, so its runs never
// warm the cache for a measured one.
func warmupCampaign() []serve.ConfigSpec {
	specs := tuhCampaign(warmupSeed, 0)
	for j := range specs {
		specs[j].Steps = tuhSteps - 1
	}
	return specs
}

// tuhSpec is TUH spec s. No two specs are alike, since a repeated spec
// would be a cache hit, not the miss this path measures: a node's pairs
// repeat only in a later round, and the step cap rises by one per round.
// Every spec reaches its first hotspot by step 15, so the cap never
// binds and the work per spec does not grow with s.
func tuhSpec(seed uint64, s int) serve.ConfigSpec {
	cell, profile, core, round := balanced(seed, s, len(nodes))
	return serve.ConfigSpec{
		Workload:      profile,
		Node:          nodes[cell],
		Core:          core,
		Steps:         tuhSteps + round,
		StopAtHotspot: true,
	}
}

// workload is one named set of inputs and the path they drive.
type workload struct {
	name, why string
	setup     func(ctx context.Context, seed uint64) (instance, error)
}

var workloads = []workload{
	{name: "sec4a", why: "Section-4A ADI runs with the full record set; the analysis pass and the ADI step dominate",
		setup: func(ctx context.Context, seed uint64) (instance, error) {
			return newSimInstance(ctx, seed, sec4aConfig, sec4aSpec, false)
		}},
	{name: "stacked", why: "two-die presets: a severity scan per die, the DRAM power model and a two-plane ADI solve",
		setup: func(ctx context.Context, seed uint64) (instance, error) {
			return newSimInstance(ctx, seed, stackedConfig, stackedSpec, true)
		}},
	{name: "serve-local", why: "fresh TUH campaigns through one durable daemon: the cache-miss path, analysis bypassed",
		setup: func(ctx context.Context, seed uint64) (instance, error) { return newServeInstance(ctx, seed, 0) }},
	{name: "serve-cluster", why: "the serve-local campaigns through a coordinator and two joined workers: dispatch and envelopes",
		setup: func(ctx context.Context, seed uint64) (instance, error) { return newServeInstance(ctx, seed, 2) }},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
