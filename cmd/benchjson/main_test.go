package main

import (
	"runtime"
	"testing"
)

func TestCPUModel(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\nmodel name\t: other\n", "Intel(R) Xeon(R) CPU @ 2.20GHz"},
		{"processor\t: 0\nBogoMIPS\t: 50.00\n", "unknown"},
		{"model name\t:   \n", "unknown"},
		{"", "unknown"},
	}
	for _, tc := range cases {
		if got := cpuModel([]byte(tc.in)); got != tc.want {
			t.Errorf("cpuModel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestMetaStampsHost(t *testing.T) {
	m := meta()
	if m.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", m.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if m.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", m.GoVersion, runtime.Version())
	}
	if m.CPUModel == "" {
		t.Error("CPUModel is empty; want the model name or \"unknown\"")
	}
	for _, s := range m.Solvers {
		if s == "implicit" {
			t.Errorf("Solvers %v lists the implicit alias", m.Solvers)
		}
	}
}

// TestCompareAcceptsCommittedBaseline: the committed baseline predates
// the host fields, and -compare must still read it.
func TestCompareAcceptsCommittedBaseline(t *testing.T) {
	const base = "../../BENCH_thermal.json"
	s, err := loadSummary(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) == 0 {
		t.Fatal("committed baseline has no benchmarks")
	}
	if err := runCompare(base, base, 30); err != nil {
		t.Fatalf("baseline vs itself: %v", err)
	}
}
