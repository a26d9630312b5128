package main

import (
	"io"
	"strings"
	"testing"
)

// base is a two-round `go test -bench` output with the surrounding
// noise a real run prints.
const base = `goos: linux
goarch: amd64
pkg: hotgauge
BenchmarkKernelADIStep-2        	     400	   3000000 ns/op	         2.000 substeps/op	       0 B/op	       0 allocs/op
BenchmarkStackedRun/core-on-memory-2   	       3	 400000000 ns/op	 9000000 B/op	   12000 allocs/op
BenchmarkKernelADIStep-2        	     400	   2000000 ns/op	         2.000 substeps/op	       0 B/op	       0 allocs/op
BenchmarkStackedRun/core-on-memory-2   	       3	 300000000 ns/op	 9000000 B/op	   12000 allocs/op
PASS
ok  	hotgauge	12.3s
`

func runCompare(t *testing.T, change string) error {
	t.Helper()
	return compare(io.Discard, base, change)
}

func TestWithinThresholdPasses(t *testing.T) {
	// Best samples: 2.0 ms -> 3.1 ms (+55%) and 300 ms -> 250 ms; the
	// slower ADI sample is not the best one and does not count.
	change := `BenchmarkKernelADIStep-2   400  9000000 ns/op  0 B/op  0 allocs/op
BenchmarkKernelADIStep-2   400  3100000 ns/op  0 B/op  0 allocs/op
BenchmarkStackedRun/core-on-memory-2   3  250000000 ns/op  9100000 B/op  12100 allocs/op
`
	if err := runCompare(t, change); err != nil {
		t.Fatalf("within threshold: %v", err)
	}
}

func TestSlowBestSampleFails(t *testing.T) {
	change := `BenchmarkKernelADIStep-2   400  3300000 ns/op  0 B/op  0 allocs/op
BenchmarkStackedRun/core-on-memory-2   3  300000000 ns/op  9000000 B/op  12000 allocs/op
`
	err := runCompare(t, change)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkKernelADIStep: best ns/op +65.0%") {
		t.Fatalf("want the +65%% ADI regression named, got %v", err)
	}
	if strings.Contains(err.Error(), "StackedRun") {
		t.Fatalf("unchanged benchmark reported: %v", err)
	}
}

func TestNewAllocationFails(t *testing.T) {
	change := `BenchmarkKernelADIStep-2   400  2000000 ns/op  8 B/op  1 allocs/op
BenchmarkStackedRun/core-on-memory-2   3  300000000 ns/op  9000000 B/op  13000 allocs/op
`
	err := runCompare(t, change)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkKernelADIStep: 1 allocs/op, base had none") {
		t.Fatalf("want the 0 -> 1 allocs/op regression named, got %v", err)
	}
	if strings.Contains(err.Error(), "StackedRun") {
		t.Fatalf("more allocations in an allocating benchmark reported: %v", err)
	}
}

func TestOneSidedNamesSkipped(t *testing.T) {
	// StackedRun exists only at the base, SteadySolve only in the change;
	// neither is compared, however slow.
	change := `BenchmarkKernelADIStep-2   400  2000000 ns/op  0 B/op  0 allocs/op
BenchmarkKernelSteadySolve/single-die-2   10  900000000 ns/op  0 B/op  5 allocs/op
`
	var out strings.Builder
	if err := compare(&out, base, change); err != nil {
		t.Fatalf("one-sided names compared: %v", err)
	}
	for _, want := range []string{
		"BenchmarkKernelSteadySolve/single-die", "new, not compared",
		"BenchmarkStackedRun/core-on-memory", "gone, not compared",
		"1 benchmarks within 60% of the base",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestNoSharedBenchmarkIsAnError(t *testing.T) {
	change := `BenchmarkKernelPercentiles-2   100000  1000 ns/op  0 B/op  0 allocs/op
`
	if err := runCompare(t, change); err == nil || !strings.Contains(err.Error(), "share no benchmark") {
		t.Fatalf("want a no-shared-benchmark error, got %v", err)
	}
	if err := runCompare(t, "FAIL\thotgauge [build failed]\n"); err == nil {
		t.Fatal("empty change output accepted")
	}
}
