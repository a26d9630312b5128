// Command bench is the HotGauge benchmark harness: it sets up one named
// workload, drives it closed-loop for a fixed time through the
// simulator's and the daemon's public APIs, checks every output, and
// prints every metric by name and unit, first as a table and then, on
// the last line, as JSON. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// maxClients caps the load generator's client goroutines (and so its
// connections); fewer run on a machine with fewer CPUs.
const maxClients = 2

func numClients() int { return min(maxClients, runtime.NumCPU()) }

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measuring time per run [s]")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics from a half-untraced, half-traced run")
	out := flag.String("out", "", "write the full report (with provenance) as JSON to this file")
	spans := flag.String("spans", "", "with -trace 1, write the traced spans as JSON to this file")
	compareMode := flag.Bool("compare", false, "compare reports: -compare a.json… -- b.json…")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration compare mode reads bounds from")
	flag.Parse()

	if *compareMode {
		bf, err := readBenchmark(*benchmark)
		if err != nil {
			fail(err)
		}
		rows, regressed, err := compare(bf, flag.Args())
		if err != nil {
			fail(err)
		}
		writeCompare(os.Stdout, rows)
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	if *workloadName == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out, *spans))
	}
	w, ok := lookupWorkload(*workloadName)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workloadName))
	}

	// A hung run must still end: measuring time plus a set-up, probe and
	// drain allowance.
	time.AfterFunc(max(170*time.Second, time.Duration(*seconds+110)*time.Second), func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded its time limit")
		os.Exit(2)
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := runWorkload(ctx, w, *seed, *seconds, *trace, *spans)
	if err != nil {
		fail(err)
	}
	rep.writeTable(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	line, err := rep.resultLine()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAll runs every workload in its own child process, so each one's
// memory is its own, and ends with one result line over all of them
// (metrics keyed workload/metric). With -out or -spans, each child
// writes name.<workload>.json next to the given path.
func runAll(seed uint64, seconds, trace int, out, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	all := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", perWorkload(out, w.name))
		}
		if spans != "" {
			args = append(args, "-spans", perWorkload(spans, w.name))
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var r report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s did not complete correctly (%v)\n", w.name, runErr)
			all.Correct = false
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, m := range r.Metrics {
			all.Metrics[w.name+"/"+name] = m
		}
		fmt.Println()
	}
	line, err := all.resultLine()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// perWorkload turns dir/name.json into dir/name.<workload>.json.
func perWorkload(path, workload string) string {
	base := strings.TrimSuffix(path, ".json")
	return base + "." + workload + ".json"
}
