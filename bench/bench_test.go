package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hotgauge/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 500}, {19, 500}, {99, 500}, // p90 would leave 9.9 samples beyond it
		{100, 900}, {999, 900},
		{1000, 990}, {9999, 990},
		{10000, 999}, {1 << 20, 999},
	} {
		pm := tailPercentile(c.n)
		if pm != c.want {
			t.Errorf("tailPercentile(%d) = %d‰, want %d‰", c.n, pm, c.want)
		}
		if pm != 500 && c.n-int(math.Ceil(float64(c.n*pm)/1000)) < 10 {
			t.Errorf("tailPercentile(%d) = %d‰ leaves fewer than 10 samples beyond it", c.n, pm)
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.25, 2.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.75, 8.25},
		// statistics.quantiles(range(1, 11), n=10)[-1] == 9.9
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.9},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 0.25, 1}, {[]float64{3, 1, 2}, 0.5, 2}, {[]float64{3, 1, 2}, 0.75, 3},
		// statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
		{[]float64{4, 2}, 0.25, 1.5}, {[]float64{4, 2}, 0.75, 4.5},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no values is not NaN")
	}
}

// hashes returns the content hashes of the first n configs of a
// generator.
func hashes(t *testing.T, n int, gen func(i int) (sim.Config, error)) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		cfg, err := gen(i)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = cfg.Hash(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSeededGeneration(t *testing.T) {
	tuh := func(seed uint64) func(int) (sim.Config, error) {
		return func(s int) (sim.Config, error) { return tuhSpec(seed, s).Config() }
	}
	for name, gen := range map[string]func(uint64) func(int) (sim.Config, error){
		"sec4a": func(seed uint64) func(int) (sim.Config, error) {
			return func(i int) (sim.Config, error) { return sec4aConfig(seed, i) }
		},
		"stacked": func(seed uint64) func(int) (sim.Config, error) {
			return func(i int) (sim.Config, error) { return stackedConfig(seed, i) }
		},
		"tuh": tuh,
	} {
		a, b, c := hashes(t, 60, gen(1)), hashes(t, 60, gen(1)), hashes(t, 60, gen(2))
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave different configs", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same configs", name)
		}
	}
	// A repeated TUH spec would be a cache hit inside the miss workload.
	seen := map[string]int{}
	for s, h := range hashes(t, 1200, tuh(1)) {
		if prev, ok := seen[h]; ok {
			t.Fatalf("TUH specs %d and %d are identical", prev, s)
		}
		seen[h] = s
	}
	warm := warmupCampaign()
	for _, spec := range warm {
		cfg, _ := spec.Config()
		h, _ := cfg.Hash()
		if _, ok := seen[h]; ok {
			t.Fatal("the warm-up campaign repeats a measured spec")
		}
	}
}

// TestWorkloadsSmoke sets every workload up and runs its first two
// operations, with their output and cross-path checks.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := inst.close(); err != nil {
					t.Error(err)
				}
			}()
			outs := map[int][]byte{}
			for i := 0; i < 2; i++ {
				r, err := inst.do(ctx, i%numClients(), i, nil)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if r.runs == 0 || r.lat <= 0 || len(r.outs) == 0 {
					t.Fatalf("op %d: empty result %+v", i, r)
				}
				for k, o := range r.outs {
					outs[k] = o
				}
			}
			if err := inst.verify(ctx, outs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs one sim and one serve workload
// traced for a second each: every per-layer metric must come out.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take seconds")
	}
	for _, name := range []string{"sec4a", "serve-local"} {
		w, _ := lookupWorkload(name)
		rep, err := runWorkload(context.Background(), w, 3, 1, 1, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: incorrect run: %v", name, rep.Problems)
		}
		for _, d := range perLayer {
			if _, ok := rep.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, d.name)
			}
		}
		if rep.Metrics["sim.thermal_us_per_step"].Value <= 0 || rep.Metrics["serve.submit_ack_ms_p50"].Value <= 0 ||
			rep.Metrics["serve.hit_job_ms_p50"].Value <= 0 {
			t.Errorf("%s: layer timings not measured: %v", name, rep.Metrics)
		}
	}
}

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSONMatchesHarness keeps the declaration honest: the
// workloads and metrics BENCHMARK.json names are exactly the ones this
// harness runs and reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf := readBenchmarkJSON(t)
	if !slices.Equal(bf.Paths, []string{"bench"}) || !slices.Equal(bf.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v / paths %v do not name this harness", bf.Command, bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestReadmeDocumentsEverything checks the README names every workload
// and metric.
func TestReadmeDocumentsEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		names = append(names, d.name)
	}
	for _, n := range names {
		if !strings.Contains(text, "`"+n+"`") {
			t.Errorf("README.md does not document `%s`", n)
		}
	}
}

// TestPinnedDigestsAgreeAcrossPaths: the serve workloads run the same
// campaigns through one daemon and through the cluster, so their pinned
// digests must be identical.
func TestPinnedDigestsAgreeAcrossPaths(t *testing.T) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for arch, byWorkload := range pins {
		if byWorkload["serve-cluster"] != byWorkload["serve-local"] {
			t.Errorf("%s: serve-cluster digest %q differs from serve-local's %q", arch, byWorkload["serve-cluster"], byWorkload["serve-local"])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values map[string]float64) string {
		r := report{Workload: "sec4a", Metrics: map[string]metric{}}
		for k, v := range values {
			r.Metrics[k] = metric{Value: v}
		}
		data, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var a, b []string
	for i, v := range []float64{100, 101, 99, 100, 102} {
		// runs_per_s is unchanged, op_ms_p50 regresses by 40%, and
		// op_ms_p90 is too noisy on side B to resolve.
		a = append(a, write(fmt.Sprintf("a%d.json", i), map[string]float64{"runs_per_s": v, "op_ms_p50": v, "op_ms_p90": v}))
		b = append(b, write(fmt.Sprintf("b%d.json", i), map[string]float64{"runs_per_s": v, "op_ms_p50": v * 1.4, "op_ms_p90": v * float64(1+i%3)}))
	}
	rows, regressed, err := compare(readBenchmarkJSON(t), append(append(a, "--"), b...))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"runs_per_s": "within bound", "op_ms_p50": "regressed", "op_ms_p90": "unresolved"}
	if len(rows) != len(want) || !regressed {
		t.Fatalf("rows %+v, regressed %v", rows, regressed)
	}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: verdict %q, want %q", r.metric, r.verdict, want[r.metric])
		}
	}
	if _, _, err := compare(readBenchmarkJSON(t), a); err == nil {
		t.Error("compare without a -- separator did not fail")
	}
}
