package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
)

// Executor runs one dispatched run to completion and returns its
// marshaled result payload. The serving layer provides it on both
// sides of the cluster: a worker's executor is its cache-then-simulate
// path (content-addressed lookup first, then the full retry-wrapped
// simulation), and the coordinator reuses the same executor as the
// local fallback when no worker is alive.
type Executor func(ctx context.Context, run sim.RemoteRun) ([]byte, error)

// Lease event kinds delivered to CoordinatorOptions.OnLease.
const (
	// LeaseGranted fires when a run is dispatched to a worker.
	LeaseGranted = "granted"
	// LeaseExpired fires when a dispatched run's lease lapses (its
	// worker stopped heartbeating) and the run is reassigned.
	LeaseExpired = "expired"
)

// LeaseEvent describes one lease transition; the serving layer journals
// these so a restarted coordinator can account for runs that were out
// on workers at the crash.
type LeaseEvent struct {
	Kind    string
	Job     string
	Run     int
	Hash    string
	Worker  string
	Epoch   int64
	Expires time.Time
}

// maxAssigns bounds how many times one run may be dispatched (to
// workers or the local fallback) before it is resolved with an error —
// the backstop against a poisonous run that kills every worker it
// lands on.
const maxAssigns = 5

// rpcTimeout bounds each cluster RPC — a coordinator's batch push, a
// worker's join, heartbeat or result post — with its own context
// deadline. Under a chaos transport's latency injection this, not the
// HTTP client's total timeout, keeps one slow or black-holed link from
// wedging the dispatch or heartbeat loop past the lease TTL.
const rpcTimeout = 5 * time.Second

// CoordinatorOptions tunes a Coordinator. The zero value is usable:
// 10 s leases, batches of 4, the real clock, and no local fallback.
type CoordinatorOptions struct {
	// LeaseTTL is how long a dispatched batch may stay outstanding
	// without a heartbeat from its worker before its runs are
	// reassigned; it is also the worker-liveness window (default 10 s).
	LeaseTTL time.Duration
	// Batch caps the runs pushed to a worker per dispatch (default 4).
	// A worker holds at most one open batch, so Batch also bounds how
	// many runs a dead worker can strand for one lease TTL.
	Batch int
	// Registry receives the cluster/* metrics (nil = a fresh one).
	Registry *obs.Registry
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Client is the HTTP client used to push batches (nil = a client
	// with a 10 s total timeout).
	Client *http.Client
	// BreakerThreshold is the consecutive-push-failure count that trips
	// a worker's dispatch circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before it
	// half-opens for a probe batch (default: the lease TTL).
	BreakerCooldown time.Duration
	// RetrySeed seeds the dispatch-retry backoff jitter (0 = the package
	// default); a chaos soak pins it for replayable schedules.
	RetrySeed int64
	// OnLease, when non-nil, observes lease grants and expiries (the
	// serving layer journals them). Called outside the scheduler lock.
	OnLease func(LeaseEvent)
	// OnJoin, when non-nil, observes every worker registration (name and
	// base URL), called outside the scheduler lock. The serving layer
	// uses it to teach a chaos transport the peer names behind
	// dynamically assigned addresses.
	OnJoin func(name, addr string)
	// LocalExec, when non-nil, executes runs on the coordinator itself
	// whenever no worker is alive, so a cluster-mode job degrades to
	// single-node execution instead of stalling.
	LocalExec Executor
	// LocalWorkers bounds concurrent LocalExec runs (0 = GOMAXPROCS);
	// fallback runs beyond it wait in the unassigned queue.
	LocalWorkers int
}

// task is one run moving through the scheduler. done is invoked exactly
// once, guarded by resolved under the coordinator's mutex.
type task struct {
	run      sim.RemoteRun
	ctx      context.Context
	done     func(payload []byte, err error)
	attempts int
	worker   string // current assignee ("" = unassigned)
	epoch    int64  // fencing token of the current custody (0 = none)
	resolved bool
}

func (t *task) key() string { return t.run.Key() }

// resolution is a resolved task carried out of the lock so its done
// callback (which journals, caches and publishes) runs unlocked.
type resolution struct {
	t       *task
	payload []byte
	err     error
}

// Coordinator shards runs across registered workers: consistent-hash
// placement, bounded-batch push dispatch, heartbeat-leased custody with
// expiry-driven reassignment, and work stealing from backlogged workers
// to idle ones. Create with NewCoordinator, feed it with Execute, and
// stop it with Close (after cancelling outstanding Execute contexts).
type Coordinator struct {
	opts   CoordinatorOptions
	clock  func() time.Time
	client *http.Client
	leases *LeaseTable
	retry  *backoff

	mu         sync.Mutex
	workers    map[string]*remoteWorker
	ring       *Ring
	tasks      map[string]*task // unresolved, by key
	unassigned []*task
	// localRunning counts LocalExec runs in flight (at most
	// opts.LocalWorkers).
	localRunning int
	closed       bool

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	wg       sync.WaitGroup // batch pushes + local executions

	gWorkers, gPending, gLeased                *obs.Gauge
	mJoins, mWorkersLost                       *obs.Counter
	mBatches, mRunsDispatched, mDispatchErrors *obs.Counter
	mResults, mDuplicates                      *obs.Counter
	mLeasesGranted, mLeasesExpired             *obs.Counter
	mReassigned, mStolen                       *obs.Counter
	mLocalRuns, mAbandoned                     *obs.Counter
	mFenced, mIntegrity                        *obs.Counter
	mBreakerTrips, mBreakerHalfOpens           *obs.Counter
	mBreakerCloses                             *obs.Counter
}

// NewCoordinator creates a coordinator and starts its scheduling loop.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Batch <= 0 {
		opts.Batch = 4
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.LocalWorkers <= 0 {
		opts.LocalWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = opts.LeaseTTL
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	reg := opts.Registry
	c := &Coordinator{
		opts:              opts,
		clock:             clock,
		client:            client,
		leases:            NewLeaseTable(opts.LeaseTTL),
		retry:             newBackoff(0, 0, opts.RetrySeed),
		workers:           map[string]*remoteWorker{},
		ring:              NewRing(0),
		tasks:             map[string]*task{},
		kick:              make(chan struct{}, 1),
		stop:              make(chan struct{}),
		loopDone:          make(chan struct{}),
		gWorkers:          reg.Gauge(MetricWorkers),
		gPending:          reg.Gauge(MetricPendingRuns),
		gLeased:           reg.Gauge(MetricLeasedRuns),
		mJoins:            reg.Counter(MetricJoins),
		mWorkersLost:      reg.Counter(MetricWorkersLost),
		mBatches:          reg.Counter(MetricBatchesDispatched),
		mRunsDispatched:   reg.Counter(MetricRunsDispatched),
		mDispatchErrors:   reg.Counter(MetricDispatchErrors),
		mResults:          reg.Counter(MetricResultsReceived),
		mDuplicates:       reg.Counter(MetricDuplicateResults),
		mLeasesGranted:    reg.Counter(MetricLeasesGranted),
		mLeasesExpired:    reg.Counter(MetricLeasesExpired),
		mReassigned:       reg.Counter(MetricRunsReassigned),
		mStolen:           reg.Counter(MetricRunsStolen),
		mLocalRuns:        reg.Counter(MetricLocalRuns),
		mAbandoned:        reg.Counter(MetricRunsAbandoned),
		mFenced:           reg.Counter(MetricFencedResults),
		mIntegrity:        reg.Counter(MetricIntegrityRejected),
		mBreakerTrips:     reg.Counter(MetricBreakerTrips),
		mBreakerHalfOpens: reg.Counter(MetricBreakerHalfOpens),
		mBreakerCloses:    reg.Counter(MetricBreakerCloses),
	}
	go c.loop()
	return c
}

// Close stops the scheduling loop and waits for in-flight batch pushes
// and local executions to return. Cancel the contexts of outstanding
// Execute calls first — Close does not resolve their runs.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.loopDone
	c.wg.Wait()
}

// kickDispatch nudges the scheduling loop without blocking.
func (c *Coordinator) kickDispatch() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// loop is the scheduling loop: every kick (membership change, result,
// new work) and every quarter-TTL tick it runs one step — expiry sweep,
// steal pass, dispatch pass, local fallback, gauge refresh.
func (c *Coordinator) loop() {
	defer close(c.loopDone)
	tick := c.opts.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		case <-t.C:
		}
		c.step()
	}
}

// step runs one scheduling pass. Everything that must happen under the
// lock is batched; lease events and task resolutions are carried out
// and delivered unlocked.
func (c *Coordinator) step() {
	now := c.clock()
	var events []LeaseEvent
	var resolutions []resolution

	c.mu.Lock()
	events = append(events, c.sweepLocked(now)...)
	c.probeLocked(now)
	c.stealLocked(now)
	ev, res := c.dispatchLocked(now)
	events = append(events, ev...)
	resolutions = append(resolutions, res...)
	resolutions = append(resolutions, c.localFallbackLocked()...)
	c.gWorkers.Set(float64(c.aliveLocked()))
	c.gPending.Set(float64(c.pendingLocked()))
	c.gLeased.Set(float64(c.leases.Len()))
	c.mu.Unlock()

	c.emit(events)
	for _, r := range resolutions {
		r.t.done(r.payload, r.err)
	}
}

// emit delivers lease events to the observer.
func (c *Coordinator) emit(events []LeaseEvent) {
	if c.opts.OnLease == nil {
		return
	}
	for _, ev := range events {
		c.opts.OnLease(ev)
	}
}

// pendingLocked counts queued-but-undispatched runs.
func (c *Coordinator) pendingLocked() int {
	n := 0
	for _, t := range c.unassigned {
		if !t.resolved && t.worker == "" {
			n++
		}
	}
	for _, w := range c.workers {
		n += w.queuedLen()
	}
	return n
}

// sweepLocked expires the leases of workers whose heartbeats stopped,
// declares those workers dead (reassigning everything they held), and
// catches any lease that lapsed independently. Returns the expiry
// events to journal.
func (c *Coordinator) sweepLocked(now time.Time) []LeaseEvent {
	var events []LeaseEvent
	for _, w := range c.workers {
		if w.dead || now.Sub(w.lastBeat) <= c.opts.LeaseTTL {
			continue
		}
		held := c.leases.ReleaseWorker(w.name)
		for _, l := range held {
			c.mLeasesExpired.Inc()
			if t := c.tasks[l.Key]; t != nil {
				events = append(events, LeaseEvent{Kind: LeaseExpired, Job: t.run.Job,
					Run: t.run.Index, Hash: l.Hash, Worker: l.Worker, Epoch: l.Epoch, Expires: l.Expires})
			}
		}
		c.markDeadLocked(w, "heartbeats stopped")
	}
	// Backstop: a lease can lapse while its worker still beats only if
	// renewal raced the sweep; reassign those runs too.
	for _, l := range c.leases.Expire(now) {
		c.mLeasesExpired.Inc()
		t := c.tasks[l.Key]
		if t == nil || t.resolved {
			continue
		}
		events = append(events, LeaseEvent{Kind: LeaseExpired, Job: t.run.Job,
			Run: t.run.Index, Hash: l.Hash, Worker: l.Worker, Epoch: l.Epoch, Expires: l.Expires})
		c.reassignLocked(t, "lease expired")
		c.mReassigned.Inc()
	}
	return events
}

// reassignLocked moves an unresolved task to the ring owner of its
// hash (or parks it unassigned when the ring is empty), removing it
// from its previous assignee's open batch.
func (c *Coordinator) reassignLocked(t *task, reason string) {
	_ = reason
	if w := c.workers[t.worker]; w != nil {
		delete(w.inflight, t.key())
	}
	owner, ok := c.ring.Owner(t.run.Hash)
	if !ok {
		t.worker = ""
		c.unassigned = append(c.unassigned, t)
		return
	}
	t.worker = owner
	w := c.workers[owner]
	w.queue = append(w.queue, t)
}

// placeUnassignedLocked assigns parked runs to ring owners once at
// least one worker is alive.
func (c *Coordinator) placeUnassignedLocked() {
	if c.ring.Len() == 0 {
		return
	}
	parked := c.unassigned
	c.unassigned = nil
	for _, t := range parked {
		if t.resolved || t.worker != "" {
			continue
		}
		c.reassignLocked(t, "worker joined")
	}
}

// probeLocked performs the timed open → half-open breaker transitions:
// a worker whose cooldown elapsed re-enters the ring so the next
// dispatch sends it one probe batch (the one-open-batch invariant
// bounds the probe), whose outcome closes or re-opens the breaker.
func (c *Coordinator) probeLocked(now time.Time) {
	for _, w := range c.workers {
		if w.dead || w.brk == nil {
			continue
		}
		if w.brk.tryHalfOpen(now) {
			c.mBreakerHalfOpens.Inc()
			c.ring.Add(w.name)
			c.placeUnassignedLocked()
		}
	}
}

// stealLocked migrates queued runs from the most-backlogged worker to
// idle ones: a worker with nothing queued and no open batch takes up to
// one batch from the longest stuck queue. Stealing breaks hash affinity
// on purpose — affinity is a cache optimization, idle capacity is not.
// A thief must be dispatchable (breaker not open, no backoff pending):
// moving runs onto a routed-around worker would strand them. A victim
// must be one whose queue cannot dispatch right now — an open batch on
// the wire, or a backoff/breaker hold — because an idle dispatch-ready
// worker's queue is pushed in this very step, and stealing from it
// would just ping-pong runs between idle workers under the lock.
func (c *Coordinator) stealLocked(now time.Time) {
	for {
		var thief, victim *remoteWorker
		for _, w := range c.workers {
			if w.dead {
				continue
			}
			if !w.busy() && w.queuedLen() == 0 && w.dispatchReady(now) && thief == nil {
				thief = w
			}
			if w.queuedLen() > 0 && (w.busy() || !w.dispatchReady(now)) &&
				(victim == nil || w.queuedLen() > victim.queuedLen()) {
				victim = w
			}
		}
		if thief == nil || victim == nil || thief == victim {
			return
		}
		moved := 0
		for i := len(victim.queue) - 1; i >= 0 && moved < c.opts.Batch; i-- {
			t := victim.queue[i]
			if t.resolved || t.worker != victim.name {
				continue
			}
			t.worker = thief.name
			thief.queue = append(thief.queue, t)
			moved++
		}
		if moved == 0 {
			return
		}
		c.mStolen.Add(int64(moved))
	}
}

// dispatchLocked pushes one bounded batch to every alive, dispatchable
// worker that has queued runs and no open batch. Returns the grant
// events to journal and the resolutions of runs that exhausted their
// assignment budget.
func (c *Coordinator) dispatchLocked(now time.Time) ([]LeaseEvent, []resolution) {
	var events []LeaseEvent
	var resolutions []resolution
	for _, w := range c.workers {
		if w.dead || w.busy() || !w.dispatchReady(now) {
			continue
		}
		var batch []*task
		rest := w.queue[:0]
		for _, t := range w.queue {
			if t.resolved || t.worker != w.name {
				continue // resolved, stolen or reassigned: drop lazily
			}
			if len(batch) < c.opts.Batch {
				batch = append(batch, t)
			} else {
				rest = append(rest, t)
			}
		}
		w.queue = rest
		if len(batch) == 0 {
			continue
		}
		runs := make([]sim.RemoteRun, 0, len(batch))
		for _, t := range batch {
			t.attempts++
			if t.attempts > maxAssigns {
				if c.resolveLocked(t) {
					c.mAbandoned.Inc()
					resolutions = append(resolutions, resolution{t: t,
						err: fmt.Errorf("cluster: run %s abandoned after %d assignments", t.key(), maxAssigns)})
				}
				continue
			}
			w.inflight[t.key()] = t
			l := c.leases.Grant(t.key(), t.run.Hash, w.name, now)
			t.epoch = l.Epoch
			t.run.Epoch = l.Epoch
			c.mLeasesGranted.Inc()
			events = append(events, LeaseEvent{Kind: LeaseGranted, Job: t.run.Job,
				Run: t.run.Index, Hash: t.run.Hash, Worker: w.name, Epoch: l.Epoch, Expires: l.Expires})
			runs = append(runs, t.run.Sealed())
		}
		if len(runs) == 0 {
			continue
		}
		w.sending = true
		c.mBatches.Inc()
		c.mRunsDispatched.Add(int64(len(runs)))
		c.wg.Add(1)
		go c.push(w.name, w.addr, runs)
	}
	return events, resolutions
}

// push POSTs one batch to a worker. Failure no longer declares the
// worker dead (a refused or lost push may be a transient fault or a
// one-way partition — heartbeats, the liveness signal, may still be
// flowing): the batch requeues on the same worker behind a jittered
// backoff, and crossing the consecutive-failure threshold trips the
// worker's circuit breaker so the scheduler routes around it. A
// successful push closes a half-open breaker.
func (c *Coordinator) push(name, addr string, runs []sim.RemoteRun) {
	defer c.wg.Done()
	err := c.postBatch(addr, runs)
	now := c.clock()
	c.mu.Lock()
	w := c.workers[name]
	if w != nil {
		w.sending = false
		if err != nil {
			c.mDispatchErrors.Inc()
			c.pushFailedLocked(w, now)
		} else if w.brk != nil && w.brk.success() {
			c.mBreakerCloses.Inc()
			w.retryAt = time.Time{}
			if !w.dead {
				c.ring.Add(w.name)
			}
		}
	}
	c.mu.Unlock()
	c.kickDispatch()
}

// postBatch marshals and POSTs one batch under a per-request context
// deadline, so a black-holed or chaos-delayed connection costs at most
// rpcTimeout before the retry machinery takes over.
func (c *Coordinator) postBatch(addr string, runs []sim.RemoteRun) error {
	body, err := json.Marshal(batchRequest{Runs: runs})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/cluster/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: batch refused: HTTP %d", resp.StatusCode)
	}
	return nil
}

// pushFailedLocked returns a failed batch's runs to their worker's
// queue — the batch never executed, so the attempt is refunded and the
// lease released — then records the failure on the breaker: below the
// threshold the worker just waits out a jittered backoff; at the
// threshold the breaker trips and the scheduler routes around it.
func (c *Coordinator) pushFailedLocked(w *remoteWorker, now time.Time) {
	if w.dead {
		return
	}
	for k, t := range w.inflight {
		delete(w.inflight, k)
		if t.resolved || t.worker != w.name {
			continue // resolved or reassigned meanwhile: not ours to requeue
		}
		c.leases.Release(k)
		t.attempts--
		w.queue = append(w.queue, t)
	}
	if w.brk == nil {
		w.brk = newBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
	}
	if w.brk.failure(now) {
		c.mBreakerTrips.Inc()
		c.tripLocked(w)
		return
	}
	w.retryAt = now.Add(c.retry.delay(w.brk.failures))
}

// tripLocked routes around a tripped worker without declaring it dead:
// it leaves the ring so new placements avoid it, and its queued runs
// move to the survivors. Heartbeats keep renewing its liveness (a
// one-way partition is not death); the breaker cooldown's half-open
// probe decides recovery, and the heartbeat sweep remains the backstop
// if the worker really is gone.
func (c *Coordinator) tripLocked(w *remoteWorker) {
	c.ring.Remove(w.name)
	moved := 0
	for _, t := range w.queue {
		if !t.resolved && t.worker == w.name {
			c.reassignLocked(t, "breaker tripped")
			moved++
		}
	}
	w.queue = nil
	if moved > 0 {
		c.mReassigned.Add(int64(moved))
	}
}

// localFallbackLocked runs queued work on the coordinator itself when
// no worker is alive and a local executor is configured. It starts a run
// only while fewer than LocalWorkers are executing; the rest stay queued
// in c.unassigned, where each finishing run's kick launches the next and
// a worker that joins meanwhile can take them instead.
func (c *Coordinator) localFallbackLocked() []resolution {
	if c.opts.LocalExec == nil || c.aliveLocked() > 0 {
		return nil
	}
	var resolutions []resolution
	for len(c.unassigned) > 0 && c.localRunning < c.opts.LocalWorkers {
		t := c.unassigned[0]
		c.unassigned[0] = nil
		c.unassigned = c.unassigned[1:]
		// A cancelled run is left to Execute, which resolves it with the
		// context cause.
		if t.resolved || t.worker != "" || t.ctx.Err() != nil {
			continue
		}
		t.attempts++
		if t.attempts > maxAssigns {
			if c.resolveLocked(t) {
				c.mAbandoned.Inc()
				resolutions = append(resolutions, resolution{t: t,
					err: fmt.Errorf("cluster: run %s abandoned after %d assignments", t.key(), maxAssigns)})
			}
			continue
		}
		t.worker = "(local)"
		c.localRunning++
		c.mLocalRuns.Inc()
		c.wg.Add(1)
		go c.runLocal(t)
	}
	return resolutions
}

// runLocal executes one fallback run through the local executor and
// resolves it like a worker result would, then frees its local slot and
// kicks the loop so the next queued run can start.
func (c *Coordinator) runLocal(t *task) {
	defer c.wg.Done()
	payload, err := c.opts.LocalExec(t.ctx, t.run)
	c.mu.Lock()
	c.localRunning--
	ok := c.resolveLocked(t)
	c.mu.Unlock()
	if ok {
		t.done(payload, err)
	}
	c.kickDispatch()
}

// resolveLocked marks a task resolved exactly once, releasing its lease
// and its assignee bookkeeping. Returns false if it already was.
func (c *Coordinator) resolveLocked(t *task) bool {
	if t.resolved {
		return false
	}
	t.resolved = true
	delete(c.tasks, t.key())
	c.leases.Release(t.key())
	if w := c.workers[t.worker]; w != nil {
		delete(w.inflight, t.key())
	}
	return true
}

// result resolves one run with a worker-posted outcome. Three guards
// run before resolution: a sealed result whose CRC32C does not verify
// is returned as an error (the HTTP layer answers 400 and the worker
// retries with a freshly marshaled body); a result echoing a superseded
// lease epoch is fenced — counted and dropped, because the run was
// reassigned while its original worker was partitioned, and a zombie
// must not resolve runs it no longer owns; and late results for
// already-resolved runs are counted and dropped — the first result
// wins. Fenced and duplicate results still return accepted=false with a
// 200, so the posting worker stops retrying.
func (c *Coordinator) result(worker string, rr sim.RemoteResult) (bool, error) {
	if err := rr.CheckIntegrity(); err != nil {
		c.mIntegrity.Inc()
		return false, err
	}
	c.mu.Lock()
	t := c.tasks[rr.Key()]
	if t == nil || t.resolved {
		c.mDuplicates.Inc()
		c.mu.Unlock()
		return false, nil
	}
	if rr.Epoch != 0 && rr.Epoch != t.epoch {
		c.mFenced.Inc()
		c.mu.Unlock()
		return false, nil
	}
	c.resolveLocked(t)
	c.mResults.Inc()
	c.mu.Unlock()

	var err error
	switch {
	case rr.Error != "":
		err = &sim.RemoteRunError{Worker: worker, Msg: rr.Error, TimedOut: rr.TimedOut}
	case len(rr.Payload) == 0:
		err = &sim.RemoteRunError{Worker: worker, Msg: "result without payload"}
	}
	t.done(rr.Payload, err)
	c.kickDispatch()
	return true, nil
}

// Execute shards runs across the cluster and blocks until every run is
// resolved (each exactly once, through onResult with its payload or
// error) or ctx is cancelled, in which case unresolved runs resolve
// with the cancellation cause and Execute returns it. onResult may be
// called concurrently from scheduler, gather and fallback goroutines.
func (c *Coordinator) Execute(ctx context.Context, runs []sim.RemoteRun, onResult func(k int, payload []byte, err error)) error {
	if len(runs) == 0 {
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(len(runs))
	ts := make([]*task, 0, len(runs))
	var rejected []resolution

	c.mu.Lock()
	for k := range runs {
		k := k
		r := runs[k]
		t := &task{run: r, ctx: ctx, done: func(payload []byte, err error) {
			onResult(k, payload, err)
			wg.Done()
		}}
		err := r.Validate()
		if err == nil && c.closed {
			err = fmt.Errorf("cluster: coordinator is shut down")
		}
		if err == nil {
			if _, dup := c.tasks[r.Key()]; dup {
				err = fmt.Errorf("cluster: run %s is already scheduled", r.Key())
			}
		}
		if err != nil {
			t.resolved = true
			rejected = append(rejected, resolution{t: t, err: err})
			continue
		}
		c.tasks[t.key()] = t
		c.reassignLocked(t, "submitted")
		ts = append(ts, t)
	}
	c.mu.Unlock()
	for _, r := range rejected {
		r.t.done(nil, r.err)
	}
	c.kickDispatch()

	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()
	select {
	case <-allDone:
		return nil
	case <-ctx.Done():
		cause := context.Cause(ctx)
		if cause == nil {
			cause = ctx.Err()
		}
		var orphans []*task
		c.mu.Lock()
		for _, t := range ts {
			if c.resolveLocked(t) {
				orphans = append(orphans, t)
			}
		}
		c.mu.Unlock()
		for _, t := range orphans {
			t.done(nil, cause)
		}
		<-allDone
		return cause
	}
}

// WorkerStatus is one worker's row in the cluster status report.
type WorkerStatus struct {
	Name          string `json:"name"`
	Addr          string `json:"addr"`
	Alive         bool   `json:"alive"`
	Queued        int    `json:"queued"`
	Inflight      int    `json:"inflight"`
	LastBeatMSAgo int64  `json:"last_beat_ms_ago"`
	// Breaker is the worker's dispatch circuit-breaker state: "closed",
	// "open" (routed around after consecutive push failures) or
	// "half-open" (probe pending).
	Breaker string `json:"breaker"`
}

// Status is the coordinator's scheduling snapshot (GET /cluster/status).
type Status struct {
	Workers     []WorkerStatus `json:"workers"`
	PendingRuns int            `json:"pending_runs"`
	LeasedRuns  int            `json:"leased_runs"`
}

// Status snapshots the scheduler for the status endpoint.
func (c *Coordinator) Status() Status {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{PendingRuns: c.pendingLocked(), LeasedRuns: c.leases.Len()}
	for _, w := range c.workers {
		brk := breakerClosed.String()
		if w.brk != nil {
			brk = w.brk.state.String()
		}
		st.Workers = append(st.Workers, WorkerStatus{
			Name:          w.name,
			Addr:          w.addr,
			Alive:         !w.dead,
			Queued:        w.queuedLen(),
			Inflight:      len(w.inflight),
			LastBeatMSAgo: now.Sub(w.lastBeat).Milliseconds(),
			Breaker:       brk,
		})
	}
	return st
}

// Health is the cluster block of the daemon's /healthz response.
type Health struct {
	// Role is "coordinator" or "worker".
	Role string `json:"role"`
	// Workers counts alive workers (coordinator role).
	Workers int `json:"workers"`
	// PendingRuns / LeasedRuns mirror the scheduler gauges.
	PendingRuns int `json:"pending_runs"`
	LeasedRuns  int `json:"leased_runs"`
	// Coordinator is the coordinator's base URL (worker role only).
	Coordinator string `json:"coordinator,omitempty"`
}

// Health snapshots the coordinator for /healthz.
func (c *Coordinator) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Health{
		Role:        "coordinator",
		Workers:     c.aliveLocked(),
		PendingRuns: c.pendingLocked(),
		LeasedRuns:  c.leases.Len(),
	}
}
