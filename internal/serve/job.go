package serve

import (
	"context"
	"sync"
	"time"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Run states within a job.
const (
	RunPending   = "pending"
	RunCached    = "cached" // served from the result cache
	RunDone      = "done"   // freshly simulated
	RunFailed    = "failed"
	RunSkipped   = "skipped"   // never ran: job cancelled first
	RunPredicted = "predicted" // resolved by surrogate triage, no exact sim
)

// RunStatus is the wire form of one run's state within a job.
type RunStatus struct {
	State      string `json:"state"`
	ConfigHash string `json:"config_hash"`
	Error      string `json:"error,omitempty"`
}

// Event is one progress record on a job's stream. Events carry absolute
// counters, so a consumer that misses intermediate events still observes
// monotonic progress.
type Event struct {
	Type      string   `json:"type"` // "status" on state changes, "progress" per completed run
	Job       string   `json:"job"`
	State     JobState `json:"state"`
	Completed int      `json:"completed"`
	Cached    int      `json:"cached"`
	Failed    int      `json:"failed"`
	Predicted int      `json:"predicted,omitempty"`
	Total     int      `json:"total"`
	ElapsedMS int64    `json:"elapsed_ms"`
	ETAMS     int64    `json:"eta_ms,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// Job is one submitted campaign moving through the queue. It keeps run
// states and config hashes only: a run's result bytes live in the
// daemon's one result home, addressed by the run's config hash.
type Job struct {
	ID    string
	Specs []ConfigSpec

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	hashes    []string
	runs      []RunStatus
	completed int
	cached    int
	failed    int
	predicted int
	auditN    int
	auditSum  float64
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	events    []Event
	changed   chan struct{} // closed and replaced on every published event

	// recovered marks a job reconstructed from the journal by startup
	// replay rather than accepted over HTTP this process lifetime.
	recovered bool
	// dedupKey is the campaign content key registered in Server.dedup
	// while the job is non-terminal (empty when durability is off).
	dedupKey string
}

func newJob(parent context.Context, id string, specs []ConfigSpec, hashes []string) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		ID:        id,
		Specs:     specs,
		ctx:       ctx,
		cancel:    cancel,
		state:     JobQueued,
		hashes:    hashes,
		runs:      make([]RunStatus, len(hashes)),
		submitted: time.Now(),
		changed:   make(chan struct{}),
	}
	for i := range j.runs {
		j.runs[i] = RunStatus{State: RunPending, ConfigHash: hashes[i]}
	}
	return j
}

// restoreJob reconstructs a terminal job from its journal records. The
// run table is taken as journaled (with any still-pending runs marked
// skipped — a job can only be terminal-with-pending if its finished
// record was written by a crash-interrupted compaction) and the
// counters are recomputed from it. Like every job, it holds no result
// bytes: reads go to the daemon's result store by config hash.
func restoreJob(parent context.Context, id string, specs []ConfigSpec, hashes []string, runs []RunStatus, state JobState, errMsg string) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		ID:        id,
		Specs:     specs,
		ctx:       ctx,
		cancel:    cancel,
		state:     state,
		hashes:    hashes,
		runs:      append([]RunStatus(nil), runs...),
		errMsg:    errMsg,
		submitted: time.Now(),
		finished:  time.Now(),
		changed:   make(chan struct{}),
		recovered: true,
	}
	for i := range j.runs {
		switch j.runs[i].State {
		case RunPending:
			j.runs[i].State = RunSkipped
			j.completed++
			j.failed++
		case RunCached:
			j.completed++
			j.cached++
		case RunDone:
			j.completed++
		case RunPredicted:
			j.completed++
			j.predicted++
		case RunFailed, RunSkipped:
			j.completed++
			j.failed++
		}
	}
	cancel() // already terminal: there is nothing left to cancel
	j.mu.Lock()
	j.publishLocked("status")
	j.mu.Unlock()
	return j
}

// Cancel requests cancellation: the job's context is cancelled, which
// skips it if still queued and aborts its runs at the next step boundary
// if running. The state transition is published by the worker (or
// immediately, if the job never reached a worker and never will).
func (j *Job) Cancel() { j.cancel() }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// publishLocked appends an event and wakes every stream. Callers hold mu.
func (j *Job) publishLocked(typ string) {
	ev := Event{
		Type:      typ,
		Job:       j.ID,
		State:     j.state,
		Completed: j.completed,
		Cached:    j.cached,
		Failed:    j.failed,
		Predicted: j.predicted,
		Total:     len(j.runs),
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		elapsed := end.Sub(j.started)
		ev.ElapsedMS = elapsed.Milliseconds()
		// ETA extrapolates from freshly simulated runs only: cache hits and
		// predicted-only resolutions complete in microseconds and would
		// make the remaining exact work look nearly free.
		if fresh := j.completed - j.cached - j.predicted; fresh > 0 && j.completed < len(j.runs) {
			perRun := elapsed / time.Duration(fresh)
			ev.ETAMS = (perRun * time.Duration(len(j.runs)-j.completed)).Milliseconds()
		}
	}
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// start transitions queued → running.
func (j *Job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.started = time.Now()
	j.publishLocked("status")
}

// finish transitions to a terminal state, marking still-pending runs as
// skipped, and reports whether it performed the transition. Idempotent:
// a second terminal transition is ignored (returning false), so a user
// cancel racing the worker resolves cleanly and counts once.
func (j *Job) finish(state JobState, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	for i := range j.runs {
		if j.runs[i].State == RunPending {
			j.runs[i].State = RunSkipped
			j.completed++
			j.failed++
		}
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.publishLocked("status")
	return true
}

// setRunCached records a cache hit for run i.
func (j *Job) setRunCached(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runs[i].State = RunCached
	j.completed++
	j.cached++
	j.publishLocked("progress")
}

// setRunDone records a freshly simulated result for run i.
func (j *Job) setRunDone(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runs[i].State = RunDone
	j.completed++
	j.publishLocked("progress")
}

// setRunPredicted records a run resolved predicted-only by triage.
func (j *Job) setRunPredicted(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runs[i].State = RunPredicted
	j.completed++
	j.predicted++
	j.publishLocked("progress")
}

// addAudit folds one audited run's |predicted − exact| severity error
// into the job's audit tally (reported by /report).
func (j *Job) addAudit(absErr float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.auditN++
	j.auditSum += absErr
}

// auditStats returns the job's audit MAE and sample count.
func (j *Job) auditStats() (mae float64, n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.auditN == 0 {
		return 0, 0
	}
	return j.auditSum / float64(j.auditN), j.auditN
}

// setRunFailed records a per-run error (or a context-cancelled skip).
func (j *Job) setRunFailed(i int, err error, skipped bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runs[i].State = RunFailed
	if skipped {
		j.runs[i].State = RunSkipped
	}
	j.runs[i].Error = err.Error()
	j.completed++
	j.failed++
	j.publishLocked("progress")
}

// failedCount returns how many runs failed or were skipped.
func (j *Job) failedCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// eventsSince returns the events published at or after index i, the
// channel that will be closed on the next publish, and whether the job
// has reached a terminal state. A streaming handler loops: drain, flush,
// and either exit (terminal with nothing pending) or wait on the
// channel.
func (j *Job) eventsSince(i int) (evs []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.changed, j.state.terminal()
}

// run returns run i's status snapshot.
func (j *Job) run(i int) (RunStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 || i >= len(j.runs) {
		return RunStatus{}, false
	}
	return j.runs[i], true
}

// JobStatus is the wire form of a job's full state.
type JobStatus struct {
	ID          string      `json:"id"`
	State       JobState    `json:"state"`
	Total       int         `json:"total"`
	Completed   int         `json:"completed"`
	Cached      int         `json:"cached"`
	Failed      int         `json:"failed"`
	Predicted   int         `json:"predicted,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Error       string      `json:"error,omitempty"`
	Recovered   bool        `json:"recovered,omitempty"`
	Runs        []RunStatus `json:"runs"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Total:       len(j.runs),
		Completed:   j.completed,
		Cached:      j.cached,
		Failed:      j.failed,
		Predicted:   j.predicted,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		Recovered:   j.recovered,
		Runs:        append([]RunStatus(nil), j.runs...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
