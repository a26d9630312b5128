package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
)

// WorkerOptions configures a cluster worker.
type WorkerOptions struct {
	// Name is the worker's stable identity on the coordinator.
	Name string
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// SelfURL is this worker's base URL as the coordinator should dial
	// it (the -advertise flag).
	SelfURL string
	// Exec executes one run; the serving layer passes its
	// cache-then-simulate path.
	Exec Executor
	// Registry receives the cluster/worker_* metrics (nil = fresh).
	Registry *obs.Registry
	// Client is the HTTP client for control-plane calls (nil = 10 s
	// timeout).
	Client *http.Client
	// Concurrency bounds parallel run executions (0 = GOMAXPROCS).
	Concurrency int
	// JoinTimeout bounds how long Start keeps retrying the initial
	// join before giving up (0 = 10 s) — a worker booted moments
	// before its coordinator should wait, not crash.
	JoinTimeout time.Duration
	// RetrySeed seeds the jittered backoff of the join and result-post
	// retry loops (0 = the package default).
	RetrySeed int64
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Sleep overrides the retry loops' cancellable wait (tests pair it
	// with Clock to step a fake clock through backoff schedules).
	Sleep func(ctx context.Context, d time.Duration) error
}

// Worker executes runs pushed by a coordinator: it registers itself,
// heartbeats to keep its leases alive, accepts bounded batches on
// HandleBatch, executes them concurrently, and posts each result back.
// A worker that loses its registration (coordinator restart) rejoins on
// the next heartbeat's 404.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	clock  func() time.Time
	sleep  func(ctx context.Context, d time.Duration) error
	retry  *backoff

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{}

	mu        sync.Mutex
	beatEvery time.Duration

	mBatches, mRuns, mPostErrors, mRejoins *obs.Counter
	mIntegrity                             *obs.Counter
}

// NewWorker creates a worker; call Start to join the cluster.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("cluster: worker needs a name")
	}
	if opts.Coordinator == "" || opts.SelfURL == "" {
		return nil, fmt.Errorf("cluster: worker needs coordinator and self URLs")
	}
	if opts.Exec == nil {
		return nil, fmt.Errorf("cluster: worker needs an executor")
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}
	if opts.JoinTimeout <= 0 {
		opts.JoinTimeout = 10 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		opts:        opts,
		client:      client,
		clock:       opts.Clock,
		sleep:       opts.Sleep,
		retry:       newBackoff(0, 0, opts.RetrySeed),
		ctx:         ctx,
		cancel:      cancel,
		sem:         make(chan struct{}, opts.Concurrency),
		beatEvery:   time.Second,
		mBatches:    opts.Registry.Counter(MetricWorkerBatches),
		mRuns:       opts.Registry.Counter(MetricWorkerRuns),
		mPostErrors: opts.Registry.Counter(MetricWorkerPostErrors),
		mRejoins:    opts.Registry.Counter(MetricWorkerRejoins),
		mIntegrity:  opts.Registry.Counter(MetricIntegrityRejected),
	}, nil
}

// Start joins the coordinator (retrying through JoinTimeout, so boot
// order between worker and coordinator does not matter) and starts the
// heartbeat loop. Join retries back off exponentially with seeded
// jitter instead of hammering a fixed cadence: a fleet of workers
// booting against a not-yet-listening coordinator decorrelates its
// retry storm, and a test replaying one seed sees the same schedule.
func (w *Worker) Start() error {
	deadline := w.clock().Add(w.opts.JoinTimeout)
	for attempt := 1; ; attempt++ {
		err := w.join()
		if err == nil {
			break
		}
		if w.clock().After(deadline) {
			return fmt.Errorf("cluster: joining %s: %w", w.opts.Coordinator, err)
		}
		if serr := w.sleep(w.ctx, w.retry.delay(attempt)); serr != nil {
			return serr
		}
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	return nil
}

// Stop gracefully shuts the worker down: in-flight runs are cancelled
// and goroutines reaped. Safe to call twice.
func (w *Worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

// Kill cancels the worker without waiting — the test hook for sudden
// death: heartbeats stop, open batches are refused with 503, and
// nothing more is posted, exactly as if the process had been kill -9'd.
func (w *Worker) Kill() {
	w.cancel()
}

// join registers with the coordinator and adopts its lease TTL as the
// heartbeat cadence (a third of the TTL, so two beats may be lost
// before custody lapses).
func (w *Worker) join() error {
	body, err := json.Marshal(joinRequest{Name: w.opts.Name, Addr: w.opts.SelfURL})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(w.ctx, rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+"/cluster/join", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: join refused: HTTP %d", resp.StatusCode)
	}
	var jr joinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return fmt.Errorf("cluster: bad join response: %w", err)
	}
	beat := time.Duration(jr.LeaseTTLMS) * time.Millisecond / 3
	if beat < 10*time.Millisecond {
		beat = 10 * time.Millisecond
	}
	w.mu.Lock()
	w.beatEvery = beat
	w.mu.Unlock()
	return nil
}

// heartbeatLoop renews liveness until the worker stops. A 404 means the
// coordinator no longer knows us (it restarted, or declared us dead
// during a stall) — rejoin and carry on. Transport errors are retried
// on the next beat: the coordinator may itself be restarting.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		beat := w.beatEvery
		w.mu.Unlock()
		if w.sleep(w.ctx, beat) != nil {
			return
		}
		status, err := w.postJSON("/cluster/heartbeat", heartbeatRequest{Name: w.opts.Name}, nil)
		if err != nil {
			continue
		}
		if status == http.StatusNotFound {
			if w.join() == nil {
				w.mRejoins.Inc()
			}
		}
	}
}

// postJSON POSTs v to the coordinator path under a per-request context
// deadline, optionally decoding the response into out, and returns the
// HTTP status.
func (w *Worker) postJSON(path string, v any, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(w.ctx, rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// HandleBatch is POST /cluster/batch on the worker: accept a pushed
// batch with 202 and execute its runs concurrently. A stopping worker
// refuses with 503, which the coordinator treats as a dead push.
func (w *Worker) HandleBatch(rw http.ResponseWriter, r *http.Request) {
	if w.ctx.Err() != nil {
		httpError(rw, http.StatusServiceUnavailable, "cluster: worker %s is shutting down", w.opts.Name)
		return
	}
	var req batchRequest
	if err := decodeInto(r, &req); err != nil {
		httpError(rw, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	for _, run := range req.Runs {
		if err := run.Validate(); err != nil {
			httpError(rw, http.StatusBadRequest, "bad run in batch: %v", err)
			return
		}
		if err := run.CheckIntegrity(); err != nil {
			// A sealed envelope corrupted in flight: refuse the whole
			// batch so the coordinator's retry re-marshals it fresh.
			w.mIntegrity.Inc()
			httpError(rw, http.StatusBadRequest, "%v", err)
			return
		}
	}
	w.mBatches.Inc()
	for _, run := range req.Runs {
		run := run
		w.wg.Add(1)
		go w.execute(run)
	}
	writeJSON(rw, http.StatusAccepted, map[string]int{"accepted": len(req.Runs)})
}

// execute runs one dispatched run and posts its result. A run cut short
// by worker shutdown posts nothing: the coordinator reassigns it when
// the lease lapses, and a late duplicate from the run's first worker is
// dropped by the resolver — never double-counted.
func (w *Worker) execute(run sim.RemoteRun) {
	defer w.wg.Done()
	select {
	case w.sem <- struct{}{}:
	case <-w.ctx.Done():
		return
	}
	defer func() { <-w.sem }()

	payload, err := w.opts.Exec(w.ctx, run)
	if w.ctx.Err() != nil {
		return // dying: let the lease expire rather than post a cancellation
	}
	res := sim.RemoteResult{Job: run.Job, Index: run.Index, Hash: run.Hash, Epoch: run.Epoch}
	switch {
	case err != nil:
		res.Error = err.Error()
		var timeout *sim.RunTimeoutError
		if errors.As(err, &timeout) {
			res.TimedOut = true
		}
	case !json.Valid(payload):
		// Payload rides a json.RawMessage on the wire; anything else
		// would fail to marshal and strand the run until its lease
		// expired. Report it as this run's failure instead.
		res.Error = fmt.Sprintf("cluster: executor produced a non-JSON payload (%d bytes)", len(payload))
	default:
		res.Payload = payload
	}
	w.mRuns.Inc()
	w.postResult(res)
}

// postResult delivers one sealed result, retrying transient failures
// behind the seeded jittered backoff. The coordinator's 200 is an ack
// even for duplicates and fenced results, so a retry can never
// double-resolve a run; a 400 means the body was corrupted in flight,
// and the next attempt re-marshals it fresh.
func (w *Worker) postResult(res sim.RemoteResult) {
	req := resultsRequest{Worker: w.opts.Name, Results: []sim.RemoteResult{res.Sealed()}}
	for attempt := 1; attempt <= 3; attempt++ {
		status, err := w.postJSON("/cluster/results", req, nil)
		if err == nil && status == http.StatusOK {
			return
		}
		if w.sleep(w.ctx, w.retry.delay(attempt)) != nil {
			return
		}
	}
	w.mPostErrors.Inc()
}

// Health is the cluster block of a worker daemon's /healthz.
func (w *Worker) Health() Health {
	return Health{Role: "worker", Coordinator: w.opts.Coordinator}
}
