package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json: the command, workloads and metrics
// this harness implements, with the end-to-end regression bounds.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// compareRow is one workload × metric comparison.
type compareRow struct {
	workload, metric, unit string
	a, b                   []float64
	change                 float64 // signed relative change of the median, B vs A
	bound                  float64 // 0: a per-layer metric, no bound
	verdict                string
}

// compare applies the BENCHMARK.json bounds to two sets of run reports
// (args: A files, "--", B files). A metric worse by more than its bound
// has regressed; one whose quartile spread on either side exceeds its
// bound is unresolved rather than unchanged. It returns the rows and
// whether anything regressed.
func compare(bf benchmarkFile, args []string) ([]compareRow, bool, error) {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		return nil, false, errors.New("usage: -compare a.json… -- b.json…")
	}
	sideA, err := loadValues(args[:sep])
	if err != nil {
		return nil, false, err
	}
	sideB, err := loadValues(args[sep+1:])
	if err != nil {
		return nil, false, err
	}
	type def struct {
		name, unit, better string
		bound              float64
	}
	var defs []def
	for _, d := range bf.EndToEnd {
		defs = append(defs, def{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range bf.PerLayer {
		defs = append(defs, def{d.Name, d.Unit, d.Better, 0})
	}
	var rows []compareRow
	regressed := false
	for _, w := range bf.Workloads {
		for _, d := range defs {
			a, b := sideA[w.Name][d.name], sideB[w.Name][d.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			r := compareRow{workload: w.Name, metric: d.name, unit: d.unit, a: a, b: b, bound: d.bound, verdict: "-"}
			q1a, ma, q3a := quantile(a, 0.25), quantile(a, 0.5), quantile(a, 0.75)
			q1b, mb, q3b := quantile(b, 0.25), quantile(b, 0.5), quantile(b, 0.75)
			r.change = relChange(ma, mb)
			worse := r.change
			if d.better == "higher" {
				worse = -worse
			}
			if d.bound > 0 {
				switch {
				case math.Max((q3a-q1a)/ma, (q3b-q1b)/mb) > d.bound:
					r.verdict = "unresolved"
				case worse > d.bound:
					r.verdict = "regressed"
					regressed = true
				default:
					r.verdict = "within bound"
				}
			}
			rows = append(rows, r)
		}
	}
	return rows, regressed, nil
}

func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}

// loadValues reads run reports (-out files) into workload → metric →
// values.
func loadValues(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

func writeCompare(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-14s %-34s %-6s %-30s %-30s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	side := func(xs []float64) string {
		return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	for _, r := range rows {
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Fprintf(w, "%-14s %-34s %-6s %-30s %-30s %+7.1f%% %6s  %s\n",
			r.workload, r.metric, r.unit, side(r.a), side(r.b), r.change*100, bound, r.verdict)
	}
}
