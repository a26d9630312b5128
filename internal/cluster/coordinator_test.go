package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
)

// newCoordServer mounts a coordinator's control plane on an httptest
// server, torn down with the test.
func newCoordServer(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(opts)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", c.HandleJoin)
	mux.HandleFunc("POST /cluster/heartbeat", c.HandleHeartbeat)
	mux.HandleFunc("POST /cluster/results", c.HandleResults)
	mux.HandleFunc("GET /cluster/status", c.HandleStatus)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

// newTestWorker starts a worker daemon stub: an httptest server whose
// only route is the batch intake, joined to the coordinator.
func newTestWorker(t *testing.T, coordURL, name string, exec Executor) *Worker {
	t.Helper()
	var w *Worker
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/batch", func(rw http.ResponseWriter, r *http.Request) {
		w.HandleBatch(rw, r)
	})
	srv := httptest.NewServer(mux)
	w, err := NewWorker(WorkerOptions{
		Name:        name,
		Coordinator: coordURL,
		SelfURL:     srv.URL,
		Exec:        exec,
		JoinTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Stop()
		srv.Close()
	})
	return w
}

// makeRuns fabricates n runs with distinct hashes for one job.
func makeRuns(job string, n int) []sim.RemoteRun {
	runs := make([]sim.RemoteRun, n)
	for i := range runs {
		runs[i] = sim.RemoteRun{
			Job:   job,
			Index: i,
			Hash:  fmt.Sprintf("hash-%s-%04d", job, i),
			Spec:  json.RawMessage(`{}`),
		}
	}
	return runs
}

// gather runs Execute and collects every resolution, keyed by index.
func gather(t *testing.T, c *Coordinator, ctx context.Context, runs []sim.RemoteRun) (map[int][]byte, map[int]error, error) {
	t.Helper()
	var mu sync.Mutex
	payloads := map[int][]byte{}
	errs := map[int]error{}
	err := c.Execute(ctx, runs, func(k int, payload []byte, rerr error) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := payloads[k]; dup {
			t.Errorf("run %d resolved twice", k)
		}
		if _, dup := errs[k]; dup {
			t.Errorf("run %d resolved twice (error)", k)
		}
		if rerr != nil {
			errs[k] = rerr
		} else {
			payloads[k] = payload
		}
	})
	return payloads, errs, err
}

// echoExec is a stub executor whose payload (a JSON string — payloads
// ride json.RawMessage on the wire) names the worker and run, recording
// per-key execution counts to prove exactly-once execution within a
// worker set that never dies.
func echoExec(name string, counts *sync.Map) Executor {
	return func(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
		n, _ := counts.LoadOrStore(run.Key(), new(int))
		*(n.(*int))++
		return []byte(strconv.Quote(name + ":" + run.Key())), nil
	}
}

// unquote decodes an echoExec payload back to worker:key form.
func unquote(t *testing.T, payload []byte) string {
	t.Helper()
	s, err := strconv.Unquote(string(payload))
	if err != nil {
		t.Fatalf("payload %q is not a JSON string: %v", payload, err)
	}
	return s
}

func counter(reg *obs.Registry, name string) int {
	return int(reg.Snapshot().Counters[name])
}

// TestCoordinatorFanout pushes a campaign through three healthy workers
// and checks every run resolves exactly once, with the work actually
// spread across the fleet.
func TestCoordinatorFanout(t *testing.T) {
	reg := obs.NewRegistry()
	c, srv := newCoordServer(t, CoordinatorOptions{
		LeaseTTL: 500 * time.Millisecond,
		Batch:    3,
		Registry: reg,
	})
	var counts sync.Map
	for i := 0; i < 3; i++ {
		newTestWorker(t, srv.URL, fmt.Sprintf("w%d", i), echoExec(fmt.Sprintf("w%d", i), &counts))
	}
	if n := c.AliveWorkers(); n != 3 {
		t.Fatalf("AliveWorkers = %d, want 3", n)
	}

	runs := makeRuns("job-1", 24)
	payloads, errs, err := gather(t, c, context.Background(), runs)
	if err != nil || len(errs) != 0 {
		t.Fatalf("Execute err=%v, run errors=%v", err, errs)
	}
	if len(payloads) != len(runs) {
		t.Fatalf("resolved %d of %d runs", len(payloads), len(runs))
	}
	seen := map[string]bool{}
	for k, p := range payloads {
		worker, key, ok := strings.Cut(unquote(t, p), ":")
		if !ok || key != runs[k].Key() {
			t.Fatalf("run %d payload %q does not name its key %q", k, p, runs[k].Key())
		}
		seen[worker] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all runs landed on one worker: %v", seen)
	}
	counts.Range(func(k, v any) bool {
		if got := *(v.(*int)); got != 1 {
			t.Errorf("run %v executed %d times", k, got)
		}
		return true
	})
	if got := counter(reg, MetricResultsReceived); got != len(runs) {
		t.Errorf("results_received = %d, want %d", got, len(runs))
	}
	if got := counter(reg, MetricDuplicateResults); got != 0 {
		t.Errorf("duplicate_results = %d, want 0", got)
	}
}

// TestCoordinatorWorkerDeath kills a worker mid-campaign: its runs hang
// inside the doomed executor until Kill, the lease lapses, and every
// run still resolves exactly once via the survivor.
func TestCoordinatorWorkerDeath(t *testing.T) {
	reg := obs.NewRegistry()
	c, srv := newCoordServer(t, CoordinatorOptions{
		LeaseTTL: 150 * time.Millisecond,
		Batch:    2,
		Registry: reg,
	})
	var counts sync.Map
	newTestWorker(t, srv.URL, "survivor", echoExec("survivor", &counts))

	started := make(chan struct{}, 64)
	doomed := newTestWorker(t, srv.URL, "doomed", func(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done() // hang until killed, like a wedged process
		return nil, ctx.Err()
	})

	runs := makeRuns("job-2", 16)
	var once sync.Once
	var mu sync.Mutex
	payloads := map[int][]byte{}
	done := make(chan error, 1)
	go func() {
		done <- c.Execute(context.Background(), runs, func(k int, payload []byte, rerr error) {
			if rerr != nil {
				t.Errorf("run %d failed: %v", k, rerr)
				return
			}
			mu.Lock()
			payloads[k] = payload
			mu.Unlock()
		})
	}()

	// Once the doomed worker has work in hand, kill it.
	select {
	case <-started:
		once.Do(doomed.Kill)
	case <-time.After(5 * time.Second):
		t.Fatal("doomed worker never received a run")
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("campaign did not finish after the worker died")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(payloads) != len(runs) {
		t.Fatalf("resolved %d of %d runs", len(payloads), len(runs))
	}
	for k, p := range payloads {
		if !strings.HasPrefix(unquote(t, p), "survivor:") {
			t.Errorf("run %d resolved by %q, want the survivor", k, p)
		}
	}
	if got := counter(reg, MetricWorkersLost); got < 1 {
		t.Errorf("workers_lost = %d, want >= 1", got)
	}
	if got := counter(reg, MetricRunsReassigned); got < 1 {
		t.Errorf("runs_reassigned = %d, want >= 1", got)
	}
}

// TestCoordinatorLocalFallback: with no workers at all, a configured
// local executor runs everything on the coordinator.
func TestCoordinatorLocalFallback(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCoordinator(CoordinatorOptions{
		LeaseTTL: 100 * time.Millisecond,
		Registry: reg,
		LocalExec: func(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
			return []byte(strconv.Quote("local:" + run.Key())), nil
		},
	})
	defer c.Close()

	runs := makeRuns("job-3", 5)
	payloads, errs, err := gather(t, c, context.Background(), runs)
	if err != nil || len(errs) != 0 {
		t.Fatalf("Execute err=%v, run errors=%v", err, errs)
	}
	if len(payloads) != len(runs) {
		t.Fatalf("resolved %d of %d runs", len(payloads), len(runs))
	}
	if got := counter(reg, MetricLocalRuns); got != len(runs) {
		t.Errorf("local_runs = %d, want %d", got, len(runs))
	}
}

// TestCoordinatorLocalFallbackBounded pushes a large campaign through
// the local fallback with a blocking executor: at most LocalWorkers runs
// execute at once, the queued rest cost no goroutines, and once the
// executor unblocks every run resolves exactly once.
func TestCoordinatorLocalFallbackBounded(t *testing.T) {
	const (
		runs         = 1000
		localWorkers = 2
		slack        = 10 // scheduler loop, Execute's waiter, test goroutines
	)
	release := make(chan struct{})
	started := make(chan struct{}, runs) // one send per run, never blocks
	var inflight, maxInflight atomic.Int64
	reg := obs.NewRegistry()
	base := runtime.NumGoroutine()
	c := NewCoordinator(CoordinatorOptions{
		LeaseTTL:     100 * time.Millisecond,
		Registry:     reg,
		LocalWorkers: localWorkers,
		LocalExec: func(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for m := maxInflight.Load(); n > m && !maxInflight.CompareAndSwap(m, n); m = maxInflight.Load() {
			}
			started <- struct{}{}
			<-release
			return []byte(strconv.Quote("local:" + run.Key())), nil
		},
	})
	defer c.Close()

	type outcome struct {
		payloads map[int][]byte
		errs     map[int]error
		err      error
	}
	done := make(chan outcome, 1)
	go func() {
		p, e, err := gather(t, c, context.Background(), makeRuns("job-bounded", runs))
		done <- outcome{p, e, err}
	}()

	timeout := time.After(10 * time.Second)
	for i := 0; i < localWorkers; i++ {
		select {
		case <-started:
		case <-timeout:
			close(release)
			t.Fatalf("only %d local runs started", i)
		}
	}
	// Status takes the scheduler lock, so the pass that launched the
	// first runs has finished: every run it started exists by now, and
	// the rest must still be queued.
	if pending := c.Status().PendingRuns; pending != runs-localWorkers {
		close(release)
		t.Fatalf("%d runs pending with %d executing, want %d", pending, localWorkers, runs-localWorkers)
	}
	extra := runtime.NumGoroutine() - base
	if extra > localWorkers+slack {
		close(release)
		t.Fatalf("%d extra goroutines with %d runs parked, want at most %d", extra, runs, localWorkers+slack)
	}
	close(release)

	out := <-done
	if out.err != nil || len(out.errs) != 0 {
		t.Fatalf("Execute err=%v, run errors=%d", out.err, len(out.errs))
	}
	if len(out.payloads) != runs {
		t.Fatalf("resolved %d of %d runs", len(out.payloads), runs)
	}
	if m := maxInflight.Load(); m > localWorkers {
		t.Errorf("%d local runs in flight at once, want at most %d", m, localWorkers)
	}
	if got := counter(reg, MetricLocalRuns); got != runs {
		t.Errorf("local_runs = %d, want %d", got, runs)
	}
}

// TestCoordinatorDuplicateResultDropped posts a stale result for an
// already-resolved run: it must be acknowledged but not accepted.
func TestCoordinatorDuplicateResultDropped(t *testing.T) {
	reg := obs.NewRegistry()
	c, srv := newCoordServer(t, CoordinatorOptions{
		LeaseTTL: 500 * time.Millisecond,
		Registry: reg,
	})
	var counts sync.Map
	newTestWorker(t, srv.URL, "w0", echoExec("w0", &counts))

	runs := makeRuns("job-4", 3)
	if _, errs, err := gather(t, c, context.Background(), runs); err != nil || len(errs) != 0 {
		t.Fatalf("Execute err=%v, run errors=%v", err, errs)
	}

	body, _ := json.Marshal(resultsRequest{
		Worker:  "ghost",
		Results: []sim.RemoteResult{{Job: "job-4", Index: 1, Hash: runs[1].Hash, Payload: []byte(`"late"`)}},
	})
	resp, err := http.Post(srv.URL+"/cluster/results", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr resultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rr.Accepted != 0 {
		t.Fatalf("late result: status=%d accepted=%d, want 200/0", resp.StatusCode, rr.Accepted)
	}
	if got := counter(reg, MetricDuplicateResults); got < 1 {
		t.Errorf("duplicate_results = %d, want >= 1", got)
	}
}

// TestCoordinatorExecuteCancel: cancelling the campaign context
// resolves every outstanding run with the cancellation cause.
func TestCoordinatorExecuteCancel(t *testing.T) {
	c, srv := newCoordServer(t, CoordinatorOptions{LeaseTTL: time.Second})
	newTestWorker(t, srv.URL, "hang", func(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	payloads, errs, err := gather(t, c, ctx, makeRuns("job-5", 4))
	if err == nil {
		t.Fatal("Execute returned nil after cancellation")
	}
	if len(payloads) != 0 {
		t.Fatalf("%d runs claimed success after cancellation", len(payloads))
	}
	if len(errs) != 4 {
		t.Fatalf("resolved %d errors, want 4", len(errs))
	}
	for k, e := range errs {
		if !errorsIsCanceled(e) {
			t.Errorf("run %d error = %v, want a cancellation", k, e)
		}
	}
}

func errorsIsCanceled(err error) bool {
	return err != nil && (err == context.Canceled || err.Error() == context.Canceled.Error())
}

// TestCoordinatorRejectsBadRuns: invalid runs resolve immediately with
// a validation error, valid siblings still execute.
func TestCoordinatorRejectsBadRuns(t *testing.T) {
	c, srv := newCoordServer(t, CoordinatorOptions{LeaseTTL: time.Second})
	var counts sync.Map
	newTestWorker(t, srv.URL, "w0", echoExec("w0", &counts))

	runs := makeRuns("job-6", 2)
	runs[1].Hash = "" // invalid
	payloads, errs, err := gather(t, c, context.Background(), runs)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(payloads) != 1 || payloads[0] == nil {
		t.Fatalf("valid run did not resolve: payloads=%v", payloads)
	}
	if errs[1] == nil {
		t.Fatal("invalid run resolved without error")
	}
}

// TestStealFromBackloggedWorker drives the steal pass directly: an idle
// worker takes up to one batch from the longest queue.
func TestStealFromBackloggedWorker(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, Batch: 4})
	defer c.Close()

	c.mu.Lock()
	defer c.mu.Unlock()
	// "a" is mid-push (busy) with a deep queue; "b" is idle.
	a := &remoteWorker{name: "a", inflight: map[string]*task{}, sending: true}
	b := &remoteWorker{name: "b", inflight: map[string]*task{}}
	c.workers["a"], c.workers["b"] = a, b
	for i := 0; i < 6; i++ {
		tk := &task{run: sim.RemoteRun{Job: "j", Index: i, Hash: fmt.Sprintf("h%d", i)}, worker: "a", resolved: false}
		tk.done = func([]byte, error) {}
		a.queue = append(a.queue, tk)
		c.tasks[tk.key()] = tk
	}
	c.stealLocked(time.Now())
	if got := b.queuedLen(); got != 4 {
		t.Fatalf("thief took %d runs, want one batch of 4", got)
	}
	if got := a.queuedLen(); got != 2 {
		t.Fatalf("victim kept %d runs, want 2", got)
	}
	if got := counter(c.opts.Registry, MetricRunsStolen); got != 4 {
		t.Fatalf("runs_stolen = %d, want 4", got)
	}
	// Resolve everything so Close has nothing pending.
	for _, tk := range c.tasks {
		tk.resolved = true
	}
}
