// Command benchjson converts `go test -bench` output into a small JSON
// summary for machine consumption (regression dashboards, the repo's
// BENCH_thermal.json artifact). Repeated samples of one benchmark — the
// `-count=N` runs benchstat wants — are aggregated into mean and min,
// and the summary is stamped with provenance metadata: the git commit,
// the host (GOMAXPROCS, CPU model, Go version), the benchmark grid's
// cell count and the solver vocabulary the numbers cover.
//
// Usage:
//
//	go test -run=NONE -bench=Kernel -benchmem -count=10 . | benchjson -out BENCH_thermal.json
//	benchjson bench-output.txt
//	benchjson -compare -threshold 50 BENCH_thermal.json candidate.json
//
// With no -out the JSON goes to stdout; file arguments are read instead
// of stdin when given. -compare takes a baseline and a candidate
// summary (either the current object form or the legacy bare-array
// form) and exits non-zero when a benchmark present in both regressed —
// best-sample ns/op slower than the baseline by more than -threshold
// percent, or allocations appearing in a previously allocation-free
// benchmark.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
)

// benchLine matches one result line, e.g.
//
//	BenchmarkKernelThermalStep-8  520  2201453 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

var (
	bytesRE  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsRE = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

// Result is the aggregated summary of one benchmark across samples.
type Result struct {
	Name        string  `json:"name"`
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"ns_per_op"`     // mean across samples
	MinNsPerOp  float64 `json:"min_ns_per_op"` // best sample
	BytesPerOp  float64 `json:"bytes_per_op"`  // mean; -1 without -benchmem
	AllocsPerOp float64 `json:"allocs_per_op"` // mean; -1 without -benchmem
}

// Meta records where a summary's numbers came from.
type Meta struct {
	// GitSHA is the commit the benchmarks ran at ("unknown" outside a
	// git checkout).
	GitSHA string `json:"git_sha"`
	// GOMAXPROCS, CPUModel (the /proc/cpuinfo "model name", "unknown"
	// elsewhere) and GoVersion say which host and toolchain measured the
	// numbers. Baselines written before they were stamped lack them.
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	// GridCells is the thermal cell count of the benchmark grid (the
	// Node-7 die at 0.1 mm pitch) — the N the per-step kernel numbers
	// scale with.
	GridCells int `json:"grid_cells"`
	// Solvers is the stock solver vocabulary the suite covers.
	Solvers []string `json:"solvers"`
	// Stacks is the stacked-scenario preset vocabulary the stacked
	// benchmarks cover (empty in pre-stacking baselines).
	Stacks []string `json:"stacks,omitempty"`
}

// Summary is the JSON artifact: provenance plus per-benchmark numbers.
// The legacy form (PR 4) was the bare benchmark array; loadSummary
// still reads it so old baselines stay comparable.
type Summary struct {
	Meta       Meta     `json:"meta"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "compare two summaries (baseline candidate) and exit 1 on regression")
	threshold := flag.Float64("threshold", 30, "regression threshold for -compare: percent slowdown of the best ns/op sample")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants exactly two files: baseline candidate"))
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *threshold); err != nil {
			fatal(err)
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		var readers []io.Reader
		for _, name := range flag.Args() {
			f, err := os.Open(name)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}

	results, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found"))
	}

	buf, err := json.MarshalIndent(Summary{Meta: meta(), Benchmarks: results}, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *out)
}

// meta stamps the summary's provenance. A missing git binary or a
// non-checkout working directory degrades to "unknown" rather than
// failing: the numbers are still worth writing.
func meta() Meta {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			sha = s
		}
	}
	cells := 0
	if fp, err := floorplan.New(floorplan.Config{Node: tech.Node7}); err == nil {
		if g, err := thermal.NewGrid(fp.Die, 0.1, thermal.DefaultStack(), thermal.SinkConductance, thermal.DefaultAmbient); err == nil {
			cells = g.NX * g.NY * g.NL
		}
	}
	cpuinfo, _ := os.ReadFile("/proc/cpuinfo")
	return Meta{
		GitSHA:     sha,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(cpuinfo),
		GoVersion:  runtime.Version(),
		GridCells:  cells,
		Solvers:    []string{"explicit", "adi"},
		Stacks:     sim.StackPresets(),
	}
}

// cpuModel extracts the first "model name" value from /proc/cpuinfo
// contents, or "unknown" when there is none (non-Linux hosts, some ARM
// kernels).
func cpuModel(cpuinfo []byte) string {
	for _, line := range strings.Split(string(cpuinfo), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			if v := strings.TrimSpace(val); v != "" {
				return v
			}
		}
	}
	return "unknown"
}

// loadSummary reads either the current object form or the legacy bare
// benchmark array.
func loadSummary(path string) (Summary, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Summary{}, err
	}
	trimmed := bytes.TrimLeft(buf, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var s Summary
		if err := json.Unmarshal(buf, &s.Benchmarks); err != nil {
			return Summary{}, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	var s Summary
	if err := json.Unmarshal(buf, &s); err != nil {
		return Summary{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare reports per-benchmark deltas of candidate vs baseline and
// errors on regressions. It compares best samples, not means: on a
// shared/noisy machine the minimum is the least contended observation,
// so it moves far less run-to-run than the mean does.
func runCompare(basePath, candPath string, threshold float64) error {
	base, err := loadSummary(basePath)
	if err != nil {
		return err
	}
	cand, err := loadSummary(candPath)
	if err != nil {
		return err
	}
	baseline := map[string]Result{}
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	var regressions []string
	compared := 0
	for _, c := range cand.Benchmarks {
		b, ok := baseline[c.Name]
		if !ok || b.MinNsPerOp <= 0 {
			continue
		}
		compared++
		pct := (c.MinNsPerOp/b.MinNsPerOp - 1) * 100
		fmt.Printf("%-60s %12.0f -> %12.0f ns/op  %+6.1f%%\n", c.Name, b.MinNsPerOp, c.MinNsPerOp, pct)
		if pct > threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s: min ns/op %+.1f%% (threshold %g%%)", c.Name, pct, threshold))
		}
		// Allocation counts are deterministic, so any growth from a
		// zero-alloc baseline is a real regression, noise-free.
		if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f allocs/op, baseline had none", c.Name, c.AllocsPerOp))
		}
	}
	if compared == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", basePath, candPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Printf("benchjson: %d benchmarks within %g%% of baseline %s\n", compared, threshold, basePath)
	return nil
}

func parse(in io.Reader) ([]Result, error) {
	agg := map[string]*Result{}
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		bytesOp, allocsOp := -1.0, -1.0
		if bm := bytesRE.FindStringSubmatch(m[4]); bm != nil {
			bytesOp, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsRE.FindStringSubmatch(m[4]); am != nil {
			allocsOp, _ = strconv.ParseFloat(am[1], 64)
		}
		r, ok := agg[name]
		if !ok {
			r = &Result{Name: name, MinNsPerOp: ns}
			agg[name] = r
			order = append(order, name)
		}
		if ns < r.MinNsPerOp {
			r.MinNsPerOp = ns
		}
		// Running means keep the JSON numbers stable whatever -count is.
		n := float64(r.Samples)
		r.NsPerOp = (r.NsPerOp*n + ns) / (n + 1)
		r.BytesPerOp = (r.BytesPerOp*n + bytesOp) / (n + 1)
		r.AllocsPerOp = (r.AllocsPerOp*n + allocsOp) / (n + 1)
		r.Samples++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(order)
	results := make([]Result, 0, len(agg))
	for _, name := range order {
		results = append(results, *agg[name])
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
