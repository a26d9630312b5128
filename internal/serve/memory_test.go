package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"hotgauge/internal/obs"
)

// distinctTinySpecs returns n tiny runs with distinct config hashes
// (each at its own ambient), starting at offset off. Their recorded
// series make each payload about 1.4 KB.
func distinctTinySpecs(off, n int) []ConfigSpec {
	specs := make([]ConfigSpec, n)
	for i := range specs {
		specs[i] = ConfigSpec{
			Workload:       "gcc",
			Node:           14,
			Steps:          8,
			Warmup:         "cold",
			Resolution:     0.5,
			Ambient:        30 + float64(off+i)/1000,
			RecordMLTD:     true,
			RecordSeverity: true,
		}
	}
	return specs
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDurableDaemonHeapPerRun bounds how much live heap a durable
// daemon keeps per finished run. Its result bytes live only in the
// on-disk store, so what stays in memory is the job table: events,
// specs, run states and hashes.
func TestDurableDaemonHeapPerRun(t *testing.T) {
	const (
		perJob   = 100
		warmJobs = 1
		jobs     = 9
		maxBytes = 1536 // per run
	)
	_, ts := newTestServer(t, Options{DataDir: t.TempDir(), Fsync: "never"})
	var before uint64
	for k := 0; k < jobs; k++ {
		if k == warmJobs {
			before = liveHeap()
		}
		job := submit(t, ts, distinctTinySpecs(k*perJob, perJob)...)
		if last := streamEvents(t, ts, job.ID); last[len(last)-1].State != JobDone {
			t.Fatalf("job %s ended %+v", job.ID, last[len(last)-1])
		}
	}
	after := liveHeap()
	runs := (jobs - warmJobs) * perJob
	perRun := (float64(after) - float64(before)) / float64(runs)
	t.Logf("live heap %d → %d B over %d runs: %.0f B/run", before, after, runs, perRun)
	if perRun > maxBytes {
		t.Fatalf("live heap grew %.0f B per run, want <= %d: the daemon keeps a payload copy", perRun, maxBytes)
	}
}

// TestInMemoryDaemonResultsBoundedByCacheBytes checks that an in-memory
// daemon's payload memory stays within CacheBytes: once its LRU evicts
// a finished run's bytes, the run answers 404, while a durable daemon
// serves the same run from its store.
func TestInMemoryDaemonResultsBoundedByCacheBytes(t *testing.T) {
	const budget = 2 << 10
	specs := distinctTinySpecs(0, 12)
	runAndFetchFirst := func(opts Options) (code int, reg *obs.Registry) {
		reg = obs.NewRegistry()
		opts.Registry = reg
		_, ts := newTestServer(t, opts)
		job := submit(t, ts, specs...)
		streamEvents(t, ts, job.ID)
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/results/0", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, reg
	}

	// One run at a time, so run 0 is the first kept and the first evicted.
	code, reg := runAndFetchFirst(Options{CacheBytes: budget, RunWorkers: 1})
	if b := reg.Gauge(MetricCacheBytes).Value(); b <= 0 || b > budget {
		t.Fatalf("serve/cache_bytes = %v, want in (0, %d]", b, budget)
	}
	if reg.Counter(MetricCacheEvictions).Value() == 0 {
		t.Fatal("no evictions: the campaign did not overflow the budget")
	}
	if code != http.StatusNotFound {
		t.Fatalf("in-memory daemon: evicted run 0 answered %d, want 404", code)
	}

	code, reg = runAndFetchFirst(Options{CacheBytes: budget, RunWorkers: 1, DataDir: t.TempDir()})
	if code != http.StatusOK {
		t.Fatalf("durable daemon: run 0 answered %d, want 200", code)
	}
	if b := reg.Gauge(MetricCacheBytes).Value(); b != 0 {
		t.Fatalf("durable daemon: serve/cache_bytes = %v, want 0 (the store is the one home)", b)
	}
}
