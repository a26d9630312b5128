package serve

import (
	"math"
	"net/http"
	"testing"

	"hotgauge/internal/thermal"
)

// specHash materializes and hashes a spec the way handleSubmit does.
func specHash(t *testing.T, spec ConfigSpec) string {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSpecSolverMaterialization(t *testing.T) {
	base := ConfigSpec{Workload: "gcc", Steps: 2}

	adi := base
	adi.Solver = "adi"
	adi.SolverTol = 0.05
	cfg, err := adi.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := cfg.Solver.(*thermal.ADI)
	if !ok {
		t.Fatalf("solver %T, want *thermal.ADI", cfg.Solver)
	}
	if s.ErrTol != 0.05 {
		t.Fatalf("ADI ErrTol = %v, want solver_tol 0.05", s.ErrTol)
	}

	// "implicit" is an alias for "adi": same solver, same tol meaning,
	// same content address (with and without a tolerance).
	imp := base
	imp.Solver = "implicit"
	imp.SolverTol = 0.05
	cfg, err = imp.Config()
	if err != nil {
		t.Fatal(err)
	}
	is, ok := cfg.Solver.(*thermal.ADI)
	if !ok {
		t.Fatalf("implicit solver %T, want *thermal.ADI", cfg.Solver)
	}
	if is.ErrTol != 0.05 {
		t.Fatalf("implicit ErrTol = %v, want solver_tol 0.05", is.ErrTol)
	}
	if got, want := specHash(t, imp), specHash(t, adi); got != want {
		t.Fatalf("implicit hash %s != adi hash %s", got, want)
	}
	imp.SolverTol, adi.SolverTol = 0, 0
	if got, want := specHash(t, imp), specHash(t, adi); got != want {
		t.Fatalf("default-tol implicit hash %s != adi hash %s", got, want)
	}

	nan := adi
	nan.SolverTol = math.NaN()
	if _, err := nan.Config(); err == nil {
		t.Fatal("NaN solver_tol materialized without error")
	}

	bad := base
	bad.Solver = "spectral"
	if _, err := bad.Config(); err == nil {
		t.Fatal("unknown solver name materialized without error")
	}

	// "" and "explicit" are the same run and must share a content address.
	exp := base
	exp.Solver = "explicit"
	if got, want := specHash(t, exp), specHash(t, base); got != want {
		t.Fatalf("explicit hash %s != unset-solver hash %s", got, want)
	}
	// Fast-steady knobs ride the hash through the wire form too.
	fs := base
	fs.FastSteady = true
	if specHash(t, fs) == specHash(t, base) {
		t.Fatal("fast_steady did not change the hash")
	}
}

// TestDefaultSolverFolding proves the daemon's -solver default is folded
// into unset specs before hashing: the dispatched hash matches an
// explicit spec naming that solver, and specs that pin a solver are left
// alone — so cache keys and cluster shards depend only on the resolved
// spec, never on ambient daemon settings.
func TestDefaultSolverFolding(t *testing.T) {
	_, ts := newTestServer(t, Options{DefaultSolver: "adi"})

	unset := ConfigSpec{Workload: "gcc", Steps: 2}
	got := submit(t, ts, unset)

	adi := unset
	adi.Solver = "adi"
	if want := specHash(t, adi); got.Hashes[0] != want {
		t.Fatalf("folded hash %s, want the explicit adi spec's %s", got.Hashes[0], want)
	}

	// A pinned solver wins over the daemon default.
	pinned := unset
	pinned.Solver = "explicit"
	got = submit(t, ts, pinned)
	if want := specHash(t, pinned); got.Hashes[0] != want {
		t.Fatalf("pinned-solver hash %s, want %s", got.Hashes[0], want)
	}
	if got.Hashes[0] == specHash(t, adi) {
		t.Fatal("daemon default overrode an explicitly pinned solver")
	}
}

func TestSubmitRejectsUnknownSolver(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJobs(t, ts, ConfigSpec{Workload: "gcc", Steps: 2, Solver: "spectral"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestNewRejectsUnknownDefaultSolver(t *testing.T) {
	if _, err := New(Options{DefaultSolver: "spectral"}); err == nil {
		t.Fatal("New accepted an unknown default solver")
	}
}
