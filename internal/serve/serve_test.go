package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotgauge/internal/obs"
)

// tinySpec is a fast-but-real run: coarse grid, cold start, two steps.
func tinySpec(node, steps int) ConfigSpec {
	return ConfigSpec{
		Workload:   "gcc",
		Node:       node,
		Steps:      steps,
		Warmup:     "cold",
		Resolution: 0.2,
		RecordMLTD: true,
	}
}

// newTestServer builds a Server plus an httptest front end, torn down
// with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, specs ...ConfigSpec) submitResponse {
	t.Helper()
	resp := postJobs(t, ts, specs...)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJobs(t *testing.T, ts *httptest.Server, specs ...ConfigSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(submitRequest{Configs: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamEvents consumes the job's NDJSON stream until the job reaches a
// terminal state, returning every event seen.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	return events
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestEndToEndSubmitStreamResultsAndCache(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Options{Registry: reg, QueueSize: 4})

	specs := []ConfigSpec{tinySpec(7, 2), tinySpec(14, 2)}
	sub := submit(t, ts, specs...)
	if sub.Total != 2 || len(sub.Hashes) != 2 || sub.Hashes[0] == sub.Hashes[1] {
		t.Fatalf("unexpected submit response %+v", sub)
	}

	// Stream until terminal; progress must be monotonic and finish done.
	events := streamEvents(t, ts, sub.ID)
	prev := -1
	for _, ev := range events {
		if ev.Completed < prev {
			t.Fatalf("progress went backwards: %d after %d", ev.Completed, prev)
		}
		prev = ev.Completed
	}
	last := events[len(events)-1]
	if last.State != JobDone || last.Completed != 2 || last.Failed != 0 {
		t.Fatalf("final event %+v, want done 2/2", last)
	}

	// Per-run results are real simulations.
	run0 := getBody(t, ts, "/jobs/"+sub.ID+"/results/0")
	var view RunView
	if err := json.Unmarshal(run0, &view); err != nil {
		t.Fatal(err)
	}
	if view.StepsRun != 2 || view.PeakTempC <= view.InitialTempC || view.ConfigHash != sub.Hashes[0] {
		t.Fatalf("suspicious run view: %+v", view)
	}
	if len(view.MLTDC) != 2 {
		t.Fatalf("MLTD series length %d, want 2", len(view.MLTDC))
	}

	simRunsBefore := reg.Counter("sim/runs").Value()
	if simRunsBefore == 0 {
		t.Fatal("expected sim/runs > 0 after first campaign")
	}

	// An identical campaign is served from the cache: no new simulator
	// runs, cache_hits counts both configs, bodies are byte-identical.
	sub2 := submit(t, ts, specs...)
	events2 := streamEvents(t, ts, sub2.ID)
	last2 := events2[len(events2)-1]
	if last2.State != JobDone || last2.Cached != 2 {
		t.Fatalf("second submit final event %+v, want done with 2 cached", last2)
	}
	if got := reg.Counter("sim/runs").Value(); got != simRunsBefore {
		t.Fatalf("cache hit re-ran the simulator: sim/runs %d -> %d", simRunsBefore, got)
	}
	if hits := reg.Counter(MetricCacheHits).Value(); hits != 2 {
		t.Fatalf("cache_hits = %d, want 2", hits)
	}
	run0again := getBody(t, ts, "/jobs/"+sub2.ID+"/results/0")
	if !bytes.Equal(run0, run0again) {
		t.Fatalf("cached result not byte-identical:\n%s\nvs\n%s", run0, run0again)
	}

	// Status reflects the cached runs.
	var st JobStatus
	getJSON(t, ts, "/jobs/"+sub2.ID, &st)
	if st.State != JobDone || st.Cached != 2 || st.Runs[0].State != RunCached {
		t.Fatalf("second job status %+v", st)
	}

	// The metrics endpoint exposes the same registry snapshot.
	var snap obs.Snapshot
	getJSON(t, ts, "/metrics", &snap)
	if snap.Counters[MetricCacheHits] != 2 || snap.Counters[MetricRunsExecuted] != 2 {
		t.Fatalf("metrics snapshot counters: %v", snap.Counters)
	}

	// And the report renders one row per run.
	rep := string(getBody(t, ts, "/jobs/"+sub.ID+"/report"))
	if !strings.Contains(rep, "0:gcc") || !strings.Contains(rep, "7nm") || !strings.Contains(rep, "peak MLTD") {
		t.Fatalf("report missing expected rows:\n%s", rep)
	}
}

func TestSSEFormat(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sub := submit(t, ts, tinySpec(7, 2))

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // stream closes at terminal state
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: status\n") || !strings.Contains(text, "data: {") {
		t.Fatalf("not SSE-framed:\n%s", text)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name  string
		specs []ConfigSpec
	}{
		{"empty", nil},
		{"unknown workload", []ConfigSpec{{Workload: "nope", Steps: 2}}},
		{"bad node", []ConfigSpec{{Workload: "gcc", Node: 5, Steps: 2}}},
		{"bad warmup", []ConfigSpec{{Workload: "gcc", Steps: 2, Warmup: "tepid"}}},
		{"zero steps", []ConfigSpec{{Workload: "gcc"}}},
	}
	for _, tc := range cases {
		resp := postJobs(t, ts, tc.specs...)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// gatedServer returns a server whose worker blocks inside each job until
// release is closed (or the job's context is cancelled).
func gatedServer(t *testing.T, opts Options) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s, ts := newTestServer(t, opts)
	s.beforeRun = func(ctx context.Context, j *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return s, ts, release
}

func TestQueueFullReturns429(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts, release := gatedServer(t, Options{Registry: reg, QueueSize: 1, Workers: 1})

	a := submit(t, ts, tinySpec(7, 2)) // picked up by the worker, blocked
	waitState(t, ts, a.ID, JobRunning)
	b := submit(t, ts, tinySpec(14, 2)) // sits in the queue

	resp := postJobs(t, ts, tinySpec(10, 2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := reg.Counter(MetricJobsRejected).Value(); got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}

	close(release)
	for _, id := range []string{a.ID, b.ID} {
		evs := streamEvents(t, ts, id)
		if last := evs[len(evs)-1]; last.State != JobDone {
			t.Fatalf("job %s final state %s, want done", id, last.State)
		}
	}
}

func TestShutdownDrainsInflightAndCancelsQueued(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts, release := gatedServer(t, Options{Registry: reg, QueueSize: 4, Workers: 1})

	a := submit(t, ts, tinySpec(7, 2))
	waitState(t, ts, a.ID, JobRunning)
	b := submit(t, ts, tinySpec(14, 2)) // still queued when shutdown starts

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Submissions during drain are refused.
	waitFor(t, func() bool {
		resp := postJobs(t, ts, tinySpec(7, 2))
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "submit refused during drain")

	// Readiness reports draining.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}

	// Let the in-flight job finish; drain should complete cleanly.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown returned %v, want nil (drained in time)", err)
	}

	evsA := streamEvents(t, ts, a.ID)
	if last := evsA[len(evsA)-1]; last.State != JobDone {
		t.Fatalf("in-flight job final state %s, want done (drained)", last.State)
	}
	evsB := streamEvents(t, ts, b.ID)
	if last := evsB[len(evsB)-1]; last.State != JobCancelled {
		t.Fatalf("queued job final state %s, want cancelled", last.State)
	}
	if got := reg.Counter(MetricJobsCancelled).Value(); got != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", got)
	}
}

func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	s, ts, _ := gatedServer(t, Options{QueueSize: 2, Workers: 1})

	a := submit(t, ts, tinySpec(7, 2))
	waitState(t, ts, a.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	// The gate observes the job context's cancellation; the job lands in
	// cancelled and every worker has exited (Shutdown returned).
	evs := streamEvents(t, ts, a.ID)
	if last := evs[len(evs)-1]; last.State != JobCancelled {
		t.Fatalf("in-flight job final state %s, want cancelled after deadline", last.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts, release := gatedServer(t, Options{QueueSize: 4, Workers: 1})
	defer close(release)

	a := submit(t, ts, tinySpec(7, 2))
	waitState(t, ts, a.ID, JobRunning)
	b := submit(t, ts, tinySpec(14, 2))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st JobStatus
	getJSON(t, ts, "/jobs/"+b.ID, &st)
	if st.State != JobCancelled {
		t.Fatalf("cancelled queued job state %s", st.State)
	}
	for _, r := range st.Runs {
		if r.State != RunSkipped {
			t.Fatalf("run state %s, want skipped", r.State)
		}
	}

	// The results endpoint has nothing for it.
	rresp, err := http.Get(ts.URL + "/jobs/" + b.ID + "/results/0")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusNotFound {
		t.Fatalf("results of cancelled run: %d, want 404", rresp.StatusCode)
	}
}

// TestFinishedJobContextDone checks that a job's terminal transition
// cancels its context, so the daemon's base context stops holding every
// finished job for the life of the process.
func TestFinishedJobContextDone(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 4, Workers: 1})
	a := submit(t, ts, tinySpec(7, 2))
	waitState(t, ts, a.ID, JobDone)
	s.mu.Lock()
	j := s.jobs[a.ID]
	s.mu.Unlock()
	waitFor(t, func() bool { return j.ctx.Err() != nil }, "the finished job's context to be done")
	if st := j.State(); st != JobDone {
		t.Fatalf("state %s after cancelling the finished job's context, want done", st)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/jobs/nope", "/jobs/nope/events", "/jobs/nope/results", "/jobs/nope/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueSize: 3})
	var h healthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" || h.QueueCap != 3 {
		t.Fatalf("healthz %+v", h)
	}
}

// waitState polls the status endpoint until the job reaches state.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) {
	t.Helper()
	waitFor(t, func() bool {
		var st JobStatus
		getJSON(t, ts, "/jobs/"+id, &st)
		return st.State == want
	}, fmt.Sprintf("job %s to reach %s", id, want))
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
