package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/store"
)

// shutdownNow drains a server immediately (tests that restart on the
// same data dir cannot wait for t.Cleanup ordering).
func shutdownNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDurableRestartServesResultsFromDisk is the durability round trip:
// a job completed by one server process is visible — with byte-identical
// results — to a fresh process on the same data dir, and a repeat
// submission is served entirely from the on-disk result store.
func TestDurableRestartServesResultsFromDisk(t *testing.T) {
	dir := t.TempDir()
	specs := []ConfigSpec{tinySpec(7, 3), tinySpec(14, 3)}

	// First lifetime: run the campaign for real.
	s1, ts1 := newTestServer(t, Options{DataDir: dir, Fsync: "always"})
	job := submit(t, ts1, specs...)
	waitState(t, ts1, job.ID, JobDone)
	want0 := getBody(t, ts1, "/jobs/"+job.ID+"/results/0")
	want1 := getBody(t, ts1, "/jobs/"+job.ID+"/results/1")
	ts1.Close()
	shutdownNow(t, s1)

	// Second lifetime: the finished job is restored read-only and its
	// results rehydrate from disk, byte for byte.
	reg := obs.NewRegistry()
	s2, ts2 := newTestServer(t, Options{DataDir: dir, Registry: reg})
	var st JobStatus
	getJSON(t, ts2, "/jobs/"+job.ID, &st)
	if st.State != JobDone || !st.Recovered {
		t.Fatalf("restored job: state=%s recovered=%v, want done/true", st.State, st.Recovered)
	}
	if got := getBody(t, ts2, "/jobs/"+job.ID+"/results/0"); !bytes.Equal(got, want0) {
		t.Fatal("restored run 0 result differs from the original bytes")
	}

	// A repeat submission re-serves every run from the disk store: zero
	// simulations in this process.
	again := submit(t, ts2, specs...)
	waitState(t, ts2, again.ID, JobDone)
	if got := getBody(t, ts2, "/jobs/"+again.ID+"/results/1"); !bytes.Equal(got, want1) {
		t.Fatal("re-submitted run 1 result not byte-identical across restart")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricRunsExecuted] != 0 {
		t.Fatalf("serve/runs_executed = %d after restart, want 0 (disk-cached)",
			snap.Counters[MetricRunsExecuted])
	}
	if snap.Counters[MetricRunsCached] != 2 {
		t.Fatalf("serve/runs_cached = %d, want 2", snap.Counters[MetricRunsCached])
	}
	_ = s2
}

// TestRecoveryRequeuesInterruptedJob plants a journal with a submitted-
// but-never-finished job — exactly what a crash mid-campaign leaves —
// and asserts a fresh server requeues and completes it under its
// original id, with the id sequence advanced past it.
func TestRecoveryRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(7, 3)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := json.Marshal(journalRecord{
		Type: recSubmitted, Job: "job-000041",
		Specs: []ConfigSpec{spec}, Hashes: []string{hash},
	})
	if err := st.Journal.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Options{DataDir: dir, Registry: reg})
	waitState(t, ts, "job-000041", JobDone)
	var jst JobStatus
	getJSON(t, ts, "/jobs/job-000041", &jst)
	if !jst.Recovered || jst.Completed != 1 || jst.Failed != 0 {
		t.Fatalf("recovered job status = %+v", jst)
	}
	if got := reg.Snapshot().Counters[MetricRecoveredJobs]; got != 1 {
		t.Fatalf("serve/recovered_jobs = %d, want 1", got)
	}
	// The id sequence resumed past the journaled job: no id reuse.
	next := submit(t, ts, tinySpec(14, 2))
	if next.ID != "job-000042" {
		t.Fatalf("next id = %s, want job-000042", next.ID)
	}
}

// TestRecoveryRestoresTerminalStates: failed and cancelled jobs come
// back with their journaled terminal state and error message.
func TestRecoveryRestoresTerminalStates(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(7, 2)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	add := func(rec journalRecord) {
		b, _ := json.Marshal(rec)
		if err := st.Journal.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	add(journalRecord{Type: recSubmitted, Job: "job-000001",
		Specs: []ConfigSpec{spec}, Hashes: []string{hash}})
	add(journalRecord{Type: recRun, Job: "job-000001", Run: 0, State: RunFailed, Error: "boom"})
	add(journalRecord{Type: recFinished, Job: "job-000001", State: string(JobFailed), Error: "1 of 1 runs failed"})
	add(journalRecord{Type: recSubmitted, Job: "job-000002",
		Specs: []ConfigSpec{spec}, Hashes: []string{hash}})
	add(journalRecord{Type: recFinished, Job: "job-000002", State: string(JobCancelled), Error: "cancelled by client"})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{DataDir: dir})
	var failed, cancelled JobStatus
	getJSON(t, ts, "/jobs/job-000001", &failed)
	getJSON(t, ts, "/jobs/job-000002", &cancelled)
	if failed.State != JobFailed || failed.Error != "1 of 1 runs failed" ||
		len(failed.Runs) != 1 || failed.Runs[0].State != RunFailed || failed.Runs[0].Error != "boom" {
		t.Fatalf("restored failed job = %+v", failed)
	}
	if cancelled.State != JobCancelled || cancelled.Runs[0].State != RunSkipped {
		t.Fatalf("restored cancelled job = %+v", cancelled)
	}
}

// TestRecoverySurvivesGarbledRecords: replay skips unparseable and
// nonsensical records instead of refusing to start.
func TestRecoverySurvivesGarbledRecords(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(7, 2)
	cfg, _ := spec.Config()
	hash, _ := cfg.Hash()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	append_ := func(b []byte) {
		if err := st.Journal.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	append_([]byte("not json at all"))
	append_([]byte(`{"t":"run","job":"job-000009","run":3}`)) // run for unknown job
	rec, _ := json.Marshal(journalRecord{Type: recSubmitted, Job: "job-000001",
		Specs: []ConfigSpec{spec}, Hashes: []string{hash}})
	append_(rec)
	append_([]byte(`{"t":"run","job":"job-000001","run":99,"state":"done"}`)) // run out of range
	append_([]byte(`{"t":"mystery","job":"job-000001"}`))                     // unknown type
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{DataDir: dir})
	waitState(t, ts, "job-000001", JobDone)
}

// TestHealthzDegradesWhenJournalFails: a failing journal flips /healthz
// to 503 "store": "degraded" and counts serve/store_errors, while
// submissions keep being accepted — availability over durability.
func TestHealthzDegradesWhenJournalFails(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{DataDir: t.TempDir(), Registry: reg})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Store != "ok" {
		t.Fatalf("healthy daemon: status %d store %q", resp.StatusCode, h.Store)
	}

	// Break the journal out from under the server (the closest in-process
	// stand-in for a dying disk) and trip an append.
	if err := s.st.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	job := submit(t, ts, tinySpec(7, 2)) // still a 202
	waitState(t, ts, job.ID, JobDone)

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Store != "degraded" {
		t.Fatalf("degraded daemon: status %d store %q, want 503/degraded", resp.StatusCode, h.Store)
	}
	if got := reg.Snapshot().Counters[MetricStoreErrors]; got == 0 {
		t.Fatal("serve/store_errors = 0 after journal failure")
	}
}

// TestSubmitDedupInFlight: an identical campaign submitted while the
// first is still in flight is answered with the existing job id; a
// different campaign, or a repeat after completion, gets a fresh job.
func TestSubmitDedupInFlight(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts, release := gatedServer(t, Options{Registry: reg, QueueSize: 4})

	first := submit(t, ts, tinySpec(7, 2))
	waitState(t, ts, first.ID, JobRunning)

	resp := postJobs(t, ts, tinySpec(7, 2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: status %d, want 200", resp.StatusCode)
	}
	var dup submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Deduplicated || dup.ID != first.ID {
		t.Fatalf("duplicate submit = %+v, want deduplicated to %s", dup, first.ID)
	}
	if got := reg.Snapshot().Counters[MetricJobsDeduped]; got != 1 {
		t.Fatalf("serve/jobs_deduped = %d, want 1", got)
	}

	// A different campaign is not deduplicated.
	other := submit(t, ts, tinySpec(14, 2))
	if other.ID == first.ID {
		t.Fatal("different campaign deduplicated to the same job")
	}

	close(release)
	waitState(t, ts, first.ID, JobDone)

	// After the job finishes, an identical submission is a fresh job
	// (served from the cache, but with its own id and lifecycle).
	again := submit(t, ts, tinySpec(7, 2))
	if again.ID == first.ID || again.Deduplicated {
		t.Fatalf("post-completion submit = %+v, want a fresh job", again)
	}
}

// TestJournalCompactionOnBoot: replay rewrites the journal to one
// summary segment, so restart cost stays bounded by live state, not
// history length.
func TestJournalCompactionOnBoot(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{DataDir: dir, Fsync: "always"})
	for i := 0; i < 3; i++ {
		job := submit(t, ts1, tinySpec(7, 2))
		waitState(t, ts1, job.ID, JobDone)
	}
	ts1.Close()
	shutdownNow(t, s1)

	s2, _ := newTestServer(t, Options{DataDir: dir})
	if sc := s2.st.Journal.SegmentCount(); sc != 1 {
		t.Fatalf("SegmentCount after boot compaction = %d, want 1", sc)
	}
	// And the compacted journal still replays: a third lifetime sees all
	// three jobs.
	shutdownNow(t, s2)
	_, ts3 := newTestServer(t, Options{DataDir: dir})
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts3, "/jobs", &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("jobs after two restarts = %d, want 3", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.State != JobDone {
			t.Fatalf("job %s restored as %s, want done", j.ID, j.State)
		}
	}
}

// TestRunFailsWhenResultStoreFails: a run is done only once its bytes
// are kept. With the result store's directory replaced by a regular file
// (a permission change would not stop a root daemon), every result write
// fails: the run must fail with the store error, count
// serve/store_errors, and leave no "done" record in the journal for a
// replay to trust.
func TestRunFailsWhenResultStoreFails(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{DataDir: dir, Registry: reg, Fsync: "always"})
	results := filepath.Join(dir, "results")
	if err := os.RemoveAll(results); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(results, []byte("not a directory"), 0o666); err != nil {
		t.Fatal(err)
	}

	job := submit(t, ts, tinySpec(7, 2))
	waitState(t, ts, job.ID, JobFailed)
	var st JobStatus
	getJSON(t, ts, "/jobs/"+job.ID, &st)
	if r := st.Runs[0]; r.State != RunFailed || !strings.Contains(r.Error, "result store") {
		t.Fatalf("run 0 = %+v, want failed with the result store's error", r)
	}
	if got := reg.Counter(MetricStoreErrors).Value(); got == 0 {
		t.Fatal("serve/store_errors = 0 after a failed result write")
	}

	ts.Close()
	shutdownNow(t, s)
	jr, err := store.OpenJournal(store.JournalOptions{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	err = jr.Replay(func(payload []byte) error {
		var rec journalRecord
		if json.Unmarshal(payload, &rec) == nil && rec.Type == recRun && rec.Job == job.ID && rec.State == RunDone {
			t.Errorf("journal claims run %d done without its bytes: %s", rec.Run, payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
