package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// metricDef declares one metric; BENCHMARK.json must declare the same
// names, units and directions (TestBenchmarkJSONMatchesHarness), and
// holds the end-to-end bounds.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of each path sees, reported by every
// workload. An operation is one sim.RunCtx call on sec4a and stacked,
// and one campaign job on the serve workloads.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by a traced run.
var perLayer = []metricDef{
	{"sim.record_us_per_step", "us", "lower"},
	{"sim.thermal_us_per_step", "us", "lower"},
	{"sim.power_us_per_step", "us", "lower"},
	{"sim.perf_us_per_step", "us", "lower"},
	{"sim.detect_us_per_step", "us", "lower"},
	{"sim.setup_ms_per_run", "ms", "lower"},
	{"sim.steps_per_run", "count", "lower"},
	{"sim.detect_skip_ratio", "ratio", "higher"},
	{"sim.hash_us", "us", "lower"},
	{"sim.envelope_seal_us", "us", "lower"},
	{"sim.envelope_verify_us", "us", "lower"},
	{"thermal.substeps_per_step", "count", "lower"},
	{"thermal.adi_saved_ratio", "ratio", "higher"},
	{"thermal.steady_solve_ms", "ms", "lower"},
	{"core.max_mltd_us", "us", "lower"},
	{"core.max_severity_us", "us", "lower"},
	{"core.detect_us", "us", "lower"},
	{"stats.percentiles_us", "us", "lower"},
	{"power.compute_us", "us", "lower"},
	{"power.dram_compute_us", "us", "lower"},
	{"serve.submit_ack_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.exec_ms_p50", "ms", "lower"},
	{"serve.results_get_ms_p50", "ms", "lower"},
	{"serve.hit_job_ms_p50", "ms", "lower"},
	{"serve.spec_config_us", "us", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.runs_executed", "count", "lower"},
	{"store.journal_append_us.always", "us", "lower"},
	{"store.journal_append_us.interval", "us", "lower"},
	{"store.journal_append_us.never", "us", "lower"},
	{"store.result_put_us", "us", "lower"},
	{"store.result_get_us", "us", "lower"},
	{"cluster.useful_dispatch_ratio", "ratio", "higher"},
	{"cluster.runs_stolen", "count", "lower"},
	{"cluster.duplicate_results", "count", "lower"},
	{"cluster.dispatch_errors", "count", "lower"},
	{"cluster.batches_per_job", "count", "lower"},
	{"op_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run. The first four fields are the contract's
// result line; the rest is what a reader needs to trust and reproduce it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Clients  int    `json:"clients"`
	// Samples is the number of latencies behind the percentiles; Tail
	// names the highest percentile with at least ten samples beyond it.
	Samples    int        `json:"samples"`
	Tail       string     `json:"tail"`
	Digest     string     `json:"digest"`
	DigestPin  string     `json:"digest_pin"`
	Problems   []string   `json:"problems,omitempty"`
	Provenance provenance `json:"provenance"`
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 5

// pinnedSeed is the seed whose digests testdata/digests.json pins.
const pinnedSeed = 1

//go:embed testdata/digests.json
var pinnedJSON []byte

// runWorkload sets the workload up, measures it and checks its outputs.
// Untraced, it reports the end-to-end metrics; traced, it measures an
// untraced and a traced half and reports the per-layer metrics.
func runWorkload(ctx context.Context, w workload, seed uint64, seconds, trace int, spans string) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Clients: numClients(), Metrics: map[string]metric{}, Provenance: stamp()}
	next := make([]int, rep.Clients)
	for c := range next {
		next[c] = c
	}
	dur := time.Duration(seconds) * time.Second
	var inst instance
	var phases []phase
	if trace == 0 {
		var setups []float64
		for range setupRepeats {
			if inst != nil {
				if err := inst.close(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			var err error
			if inst, err = w.setup(ctx, seed); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer inst.close()
		p := runPhase(ctx, inst, next, dur, nil)
		phases = append(phases, p)
		rep.set("runs_per_s", p.runsPerSec())
		rep.set("op_ms_p50", quantile(p.lats, 0.50))
		rep.set("op_ms_p90", quantile(p.lats, 0.90))
		rep.set("setup_s", quantile(setups, 0.5))
		rep.set("peak_rss_mb", peakRSSMB())
	} else {
		var err error
		if inst, err = w.setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer inst.close()
		a := runPhase(ctx, inst, next, dur/2, nil)
		tr := newTracer()
		b := runPhase(ctx, inst, next, dur-dur/2, tr)
		phases = append(phases, a, b)
		layers, err := inst.layers(ctx, tr)
		if err != nil {
			return nil, err
		}
		layers["op_ms_p99"] = quantile(a.lats, 0.99)
		layers["bench.trace_overhead_pct"] = (div(a.runsPerSec(), b.runsPerSec()) - 1) * 100
		for _, d := range perLayer {
			v, ok := layers[d.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			rep.set(d.name, v)
		}
		if spans != "" {
			if err := tr.write(spans); err != nil {
				return nil, err
			}
		}
	}

	outs := map[int][]byte{}
	for _, p := range phases {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.Problems = append(rep.Problems, p.errs...)
		for i, o := range p.outs {
			outs[i] = o
		}
	}
	rep.Samples = len(phases[0].lats)
	pm := tailPercentile(rep.Samples)
	rep.Tail = fmt.Sprintf("p%g = %.4g ms", float64(pm)/10, quantile(phases[0].lats, float64(pm)/1000))
	rep.check(ctx, inst, outs)
	return rep, nil
}

func (r *report) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}

// check fills in the outputs for any of the first digestOps inputs the
// phases did not answer, digests them, compares the digest with the
// pinned one, and runs the instance's cross-path checks. Any problem
// makes the run incorrect.
func (r *report) check(ctx context.Context, inst instance, outs map[int][]byte) {
	for i := 0; i < digestOps; i++ {
		if _, ok := outs[i]; ok {
			continue
		}
		res, err := inst.do(ctx, i%r.Clients, i, nil)
		if err != nil {
			r.Problems = append(r.Problems, fmt.Sprintf("digest op %d: %v", i, err))
			continue
		}
		for k, o := range res.outs {
			if _, ok := outs[k]; !ok {
				outs[k] = o
			}
		}
	}
	r.Digest = digest(outs)
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		r.Problems = append(r.Problems, "testdata/digests.json: "+err.Error())
	}
	switch want, ok := pins[runtime.GOARCH][r.Workload]; {
	case r.Seed != pinnedSeed:
		r.DigestPin = fmt.Sprintf("none (digests are pinned for seed %d)", pinnedSeed)
	case !ok:
		r.DigestPin = "none (no digest pinned for " + runtime.GOARCH + ")"
	case want == r.Digest:
		r.DigestPin = "match"
	default:
		r.DigestPin = "MISMATCH, pinned " + want
		r.Problems = append(r.Problems, "output digest differs from the pinned one")
	}
	if err := inst.verify(ctx, outs); err != nil {
		r.Problems = append(r.Problems, "cross-path check: "+err.Error())
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// digest is the sha256 over the length-prefixed outputs for the first
// digestOps inputs.
func digest(outs map[int][]byte) string {
	h := sha256.New()
	for i := 0; i < digestOps; i++ {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(outs[i]))))
		h.Write(outs[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeTable prints the run for a human: provenance, every metric with
// its unit, sample counts and the checks.
func (r *report) writeTable(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "workload %s · seed %d · %d s · %d clients · trace %d\n", r.Workload, r.Seed, r.Seconds, r.Clients, r.Trace)
	fmt.Fprintf(w, "  git %s · %s · %s/%s · GOMAXPROCS %d · nproc %d · %s\n",
		p.GitSHA, p.GoVersion, p.GOOS, p.GOARCH, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  %d ops attempted, %d failed · %d latency samples, tail %s\n", r.Attempted, r.Failed, r.Samples, r.Tail)
	fmt.Fprintf(w, "  digest %s (pinned: %s)\n", r.Digest, r.DigestPin)
	for _, pr := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", pr)
	}
}

// resultLine is the last line of a run's standard output: exactly the
// contract's four keys.
func (r *report) resultLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}
