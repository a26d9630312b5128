package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hotgauge/internal/fault"
	"hotgauge/internal/sim"
	"hotgauge/internal/thermal"
)

// errClass reduces a run's error text to the failure class both
// execution paths must agree on; a worker-reported failure wraps the
// same text in a RemoteRunError.
func errClass(msg string) string {
	switch {
	case msg == "":
		return ""
	case strings.Contains(msg, "panicked"):
		return "panic"
	case strings.Contains(msg, "wall-time"):
		return "timeout"
	}
	return "other: " + msg
}

// TestPathEquivalence runs one faulty campaign — a panicking run, a run
// that trips its per-run deadline, and healthy siblings — on a single
// node and through a coordinator with one joined worker. Both paths
// must agree on every run's state and error class and on the healthy
// runs' payload bytes; each counts the timeout once, on the job's
// daemon, and each healthy run is simulated once, on the daemon that
// ran it.
func TestPathEquivalence(t *testing.T) {
	const panicRun, timeoutRun = 1, 4
	specs := clusterSpecs(6)
	healthy := len(specs) - 2
	plant := func(s *Server) {
		s.wrapCfg = func(i int, cfg sim.Config) sim.Config {
			switch i {
			case panicRun:
				cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, PanicAt: 1}
			case timeoutRun:
				cfg.MaxWallTime = 20 * time.Millisecond
				cfg.Solver = &fault.FlakySolver{Inner: &thermal.Explicit{}, StallAt: 1, Stall: 300 * time.Millisecond}
			}
			return cfg
		}
	}

	single, singleTS := newTestServer(t, Options{})
	plant(single)
	singleSub := submit(t, singleTS, specs...)
	waitState(t, singleTS, singleSub.ID, JobFailed)

	coord, coordTS := newClusterNode(t, Options{})
	worker, workerTS := newClusterNode(t, Options{})
	plant(worker)
	if err := worker.JoinCluster(coordTS.URL, "w0", workerTS.URL); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return coord.Coordinator().AliveWorkers() == 1 }, "worker to join")
	clusterSub := submit(t, coordTS, specs...)
	waitState(t, coordTS, clusterSub.ID, JobFailed)

	var singleSt, clusterSt JobStatus
	getJSON(t, singleTS, "/jobs/"+singleSub.ID, &singleSt)
	getJSON(t, coordTS, "/jobs/"+clusterSub.ID, &clusterSt)
	for i := range specs {
		a, b := singleSt.Runs[i], clusterSt.Runs[i]
		want := ""
		switch i {
		case panicRun:
			want = "panic"
		case timeoutRun:
			want = "timeout"
		}
		if errClass(a.Error) != want || errClass(b.Error) != want {
			t.Errorf("run %d: error classes single %q, cluster %q, want %q", i, errClass(a.Error), errClass(b.Error), want)
		}
		if a.State != b.State {
			t.Errorf("run %d: single-node state %s, cluster state %s", i, a.State, b.State)
		}
		if want != "" {
			continue
		}
		if a.State != RunDone {
			t.Errorf("run %d: state %s, want done", i, a.State)
			continue
		}
		got, control := fetchRun(t, coordTS, clusterSub.ID, i), fetchRun(t, singleTS, singleSub.ID, i)
		if !bytes.Equal(got, control) {
			t.Errorf("run %d: cluster payload differs from single-node payload", i)
		}
	}

	for _, c := range []struct {
		name               string
		s                  *Server
		timeouts, executed int64
	}{
		{"single node", single, 1, int64(healthy)},
		{"coordinator", coord, 1, 0},
		{"worker", worker, 0, int64(healthy)},
	} {
		snap := c.s.Registry().Snapshot()
		if got := snap.Counters[MetricTimeouts]; got != c.timeouts {
			t.Errorf("%s: %s = %d, want %d", c.name, MetricTimeouts, got, c.timeouts)
		}
		if got := snap.Counters[MetricRunsExecuted]; got != c.executed {
			t.Errorf("%s: %s = %d, want %d", c.name, MetricRunsExecuted, got, c.executed)
		}
	}
}
