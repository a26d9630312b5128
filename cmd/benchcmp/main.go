// Command benchcmp compares two `go test -bench` outputs taken on one
// host in one sitting — the base commit's and the change's — and exits
// non-zero when the change regressed a benchmark both sides ran:
//
//   - its best ns/op sample is more than 60% slower than the base's, or
//   - it allocates, while the base allocated nothing (-benchmem).
//
// Usage:
//
//	benchcmp base.txt change.txt
//
// Either file may hold several samples of one benchmark (-count, or
// repeated runs appended); the best sample stands for each side, because
// on a shared machine the minimum is the least contended observation.
// A benchmark present on one side only is listed and not compared. It
// is an error for the two outputs to share no benchmark. `make
// bench-check` (scripts/bench_compare.sh) is what usually runs it.
package main

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// threshold is the allowed slowdown of the best sample, in percent. It
// is generous on purpose: the gate is for order-of-magnitude mistakes,
// like losing the ADI speedup or a kernel going quadratic, not for 10%
// drift on a jittery shared host.
const threshold = 60

// benchLine matches one result line, e.g.
// "BenchmarkKernelADIStep-8  520  2201453 ns/op  0 B/op  0 allocs/op".
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	allocsRE  = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

// result is one benchmark's best ns/op sample and its largest allocs/op
// sample (-1 when the output carries no allocs/op column).
type result struct {
	minNs, allocs float64
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp base.txt change.txt")
		os.Exit(2)
	}
	var text [2]string
	for i, name := range os.Args[1:] {
		buf, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		text[i] = string(buf)
	}
	if err := compare(os.Stdout, text[0], text[1]); err != nil {
		fatal(err)
	}
}

// compare parses both outputs, prints one line per benchmark to w and
// returns an error naming every regression.
func compare(w io.Writer, baseText, changeText string) error {
	base, change := parse(baseText), parse(changeText)
	names := make([]string, 0, len(base)+len(change))
	for name := range base {
		names = append(names, name)
	}
	for name := range change {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var regressions []string
	compared := 0
	for _, name := range names {
		b, inBase := base[name]
		c, inChange := change[name]
		if !inBase || !inChange {
			side := "gone"
			if !inBase {
				side = "new"
			}
			fmt.Fprintf(w, "%-56s %s, not compared\n", name, side)
			continue
		}
		compared++
		pct := (c.minNs/b.minNs - 1) * 100
		fmt.Fprintf(w, "%-56s %12.0f -> %12.0f ns/op  %+6.1f%%\n", name, b.minNs, c.minNs, pct)
		if pct > threshold {
			regressions = append(regressions, fmt.Sprintf("%s: best ns/op %+.1f%% (threshold %d%%)", name, pct, threshold))
		}
		// Allocation counts are deterministic, so any allocation in a
		// kernel that allocated nothing at the base is a real regression.
		if b.allocs == 0 && c.allocs > 0 {
			regressions = append(regressions, fmt.Sprintf("%s: %g allocs/op, base had none", name, c.allocs))
		}
	}
	if compared == 0 {
		return fmt.Errorf("the two outputs share no benchmark")
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "benchcmp: %d benchmarks within %d%% of the base\n", compared, threshold)
	return nil
}

// parse reads `go test -bench` text into per-benchmark results, keyed by
// name with the -GOMAXPROCS suffix stripped.
func parse(text string) map[string]result {
	out := map[string]result{}
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil || ns <= 0 {
			continue
		}
		allocs := -1.0
		if am := allocsRE.FindStringSubmatch(m[3]); am != nil {
			allocs, _ = strconv.ParseFloat(am[1], 64) // the pattern admits only digits and dots
		}
		r, ok := out[m[1]]
		if !ok || ns < r.minNs {
			r.minNs = ns
		}
		if !ok || allocs > r.allocs {
			r.allocs = allocs
		}
		out[m[1]] = r
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
