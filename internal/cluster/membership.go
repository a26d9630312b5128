package cluster

import (
	"fmt"
	"net/url"
	"time"
)

// remoteWorker is the coordinator's view of one registered worker: its
// dial address, its liveness (last heartbeat), its queue of runs owned
// but not yet dispatched, and the runs currently out on its open batch.
// All fields are guarded by the coordinator's mutex.
type remoteWorker struct {
	name     string
	addr     string // base URL, e.g. http://10.0.0.7:8081
	lastBeat time.Time
	dead     bool

	// queue holds runs assigned to this worker awaiting dispatch;
	// resolved or reassigned tasks are skipped lazily at pop time.
	queue []*task
	// inflight holds the runs of the open batch, keyed by task key. A
	// worker gets at most one open batch: the next is pushed only once
	// every run of the previous one resolved — bounded outstanding
	// work is both the flow control and the blast radius of a death.
	inflight map[string]*task
	// sending marks a batch POST in flight to this worker.
	sending bool
	// brk is the worker's dispatch circuit breaker (nil until the first
	// push failure or join; nil reads as closed).
	brk *breaker
	// retryAt delays the next dispatch after a transient push failure
	// below the breaker threshold (jittered backoff).
	retryAt time.Time
}

// busy reports whether the worker has an open batch (results pending or
// a push on the wire).
func (w *remoteWorker) busy() bool { return w.sending || len(w.inflight) > 0 }

// dispatchReady reports whether the scheduler may push a batch now: the
// breaker must not be open and any transient-failure backoff must have
// elapsed. A nil breaker (no failure ever recorded, or a worker built
// directly in tests) reads as closed.
func (w *remoteWorker) dispatchReady(now time.Time) bool {
	if w.brk != nil && !w.brk.dispatchable() {
		return false
	}
	return !now.Before(w.retryAt)
}

// queuedLen counts the unresolved tasks in the worker's queue.
func (w *remoteWorker) queuedLen() int {
	n := 0
	for _, t := range w.queue {
		if !t.resolved && t.worker == w.name {
			n++
		}
	}
	return n
}

// join registers (or revives) a worker. Rejoining with the same name —
// a restarted worker, or one the coordinator had declared dead — resets
// its state; any runs it held were already reassigned when it was
// declared dead, and a result it still posts for an old assignment is
// deduplicated by the resolver.
func (c *Coordinator) join(name, addr string) error {
	if name == "" {
		return fmt.Errorf("cluster: join without a worker name")
	}
	u, err := url.Parse(addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cluster: join %q with unusable address %q", name, addr)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: coordinator is shut down")
	}
	w := c.workers[name]
	if w == nil {
		w = &remoteWorker{name: name, inflight: map[string]*task{}}
		c.workers[name] = w
	}
	if w.dead || w.addr != addr {
		// A revived or re-addressed worker starts clean: whatever it
		// held was reassigned at death, and stale inflight bookkeeping
		// must not block its first batch. Its breaker resets too — a
		// restarted process earns a fresh failure budget.
		w.inflight = map[string]*task{}
		w.queue = nil
		w.sending = false
		w.brk = nil
		w.retryAt = time.Time{}
	}
	if w.brk == nil {
		w.brk = newBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
	}
	w.addr = addr
	w.dead = false
	w.lastBeat = c.clock()
	if w.brk.dispatchable() {
		// An open breaker keeps the worker out of the ring until its
		// half-open probe succeeds, even across a spurious re-join.
		c.ring.Add(name)
	}
	c.mJoins.Inc()
	// Runs parked while no worker was alive get an owner now.
	c.placeUnassignedLocked()
	c.mu.Unlock()
	if c.opts.OnJoin != nil {
		c.opts.OnJoin(name, addr)
	}
	c.kickDispatch()
	return nil
}

// heartbeat refreshes a worker's liveness and renews its leases,
// reporting false for unknown (or dead-and-forgotten) workers so the
// HTTP layer can tell them to re-register.
func (c *Coordinator) heartbeat(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil || w.dead {
		return false
	}
	now := c.clock()
	w.lastBeat = now
	c.leases.Renew(name, now)
	return true
}

// markDeadLocked declares a worker dead: it leaves the ring, its leases
// are released, and every run it held (queued or in flight) is
// reassigned to the survivors. Idempotent. Caller holds c.mu and must
// kick the dispatcher afterwards.
func (c *Coordinator) markDeadLocked(w *remoteWorker, reason string) {
	if w.dead {
		return
	}
	w.dead = true
	w.sending = false
	c.ring.Remove(w.name)
	c.mWorkersLost.Inc()
	c.leases.ReleaseWorker(w.name)

	moved := 0
	for _, t := range w.inflight {
		if !t.resolved {
			c.reassignLocked(t, reason)
			moved++
		}
	}
	w.inflight = map[string]*task{}
	for _, t := range w.queue {
		if !t.resolved && t.worker == w.name {
			c.reassignLocked(t, reason)
			moved++
		}
	}
	w.queue = nil
	if moved > 0 {
		c.mReassigned.Add(int64(moved))
	}
}

// aliveLocked counts live workers. Caller holds c.mu.
func (c *Coordinator) aliveLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// AliveWorkers reports how many registered workers are currently live.
// With none, Execute runs every run on the LocalExec fallback.
func (c *Coordinator) AliveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked()
}
