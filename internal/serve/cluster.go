package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hotgauge/internal/cluster"
	"hotgauge/internal/sim"
	"hotgauge/internal/store"
)

// newCoordinator builds the server's cluster coordinator. Every daemon
// gets one, and every cache miss runs through it — a daemon with no live
// workers is simply a cluster of zero whose local executor simulates its
// runs — so turning a single node into a coordinator is nothing more
// than pointing workers at it. With a chaos profile configured, batch
// pushes ride the fault-injecting transport, and every joining worker's
// name and address are taught to it so partition schedules written
// against worker names resolve their dynamically assigned ports.
func (s *Server) newCoordinator() *cluster.Coordinator {
	opts := cluster.CoordinatorOptions{
		LeaseTTL:     s.opts.ClusterLeaseTTL,
		Batch:        s.opts.ClusterBatch,
		Registry:     s.reg,
		OnLease:      s.journalLease,
		LocalExec:    s.simulate,
		LocalWorkers: s.opts.RunWorkers,
		RetrySeed:    s.opts.ChaosSeed,
	}
	if s.chaosT != nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second, Transport: s.chaosT}
		opts.OnJoin = s.chaosT.AddPeer
	}
	return cluster.NewCoordinator(opts)
}

// journalLease appends a lease transition to the journal (when
// durability is on) so a restarted coordinator can count the runs that
// were out on workers at the crash. Lease records ride the same WAL as
// job records; compaction drops them because recovery requeues every
// non-terminal run anyway.
func (s *Server) journalLease(ev cluster.LeaseEvent) {
	if s.st == nil {
		return
	}
	typ := store.RecLeaseGranted
	if ev.Kind == cluster.LeaseExpired {
		typ = store.RecLeaseExpired
	}
	b, err := store.LeaseRecord{
		Type:          typ,
		Job:           ev.Job,
		Run:           ev.Run,
		Hash:          ev.Hash,
		Worker:        ev.Worker,
		Epoch:         ev.Epoch,
		ExpiresUnixMS: ev.Expires.UnixMilli(),
	}.Marshal()
	if err == nil {
		err = s.st.Journal.Append(b)
	}
	if err != nil {
		s.mStoreErrors.Inc()
	}
}

// JoinCluster turns this daemon into a worker of the given coordinator:
// it registers under name (advertising selfURL as its dialable base
// URL), starts heartbeating, and begins accepting pushed batches on
// POST /cluster/batch. Call it after the daemon's listener is up —
// the coordinator may dial back immediately. The daemon keeps serving
// its own job API; cluster work shares its executor, cache and store.
func (s *Server) JoinCluster(coordinatorURL, name, selfURL string) error {
	wopts := cluster.WorkerOptions{
		Name:        name,
		Coordinator: coordinatorURL,
		SelfURL:     selfURL,
		Exec:        s.executeForCoordinator,
		Registry:    s.reg,
		Concurrency: s.opts.RunWorkers,
		RetrySeed:   s.opts.ChaosSeed,
	}
	if s.chaosT != nil {
		// The worker's control-plane calls ride the chaos transport too;
		// "coordinator" is the name partition schedules use for the far
		// end of every worker's RPCs.
		s.chaosT.AddPeer("coordinator", coordinatorURL)
		wopts.Client = &http.Client{Timeout: 10 * time.Second, Transport: s.chaosT}
	}
	w, err := cluster.NewWorker(wopts)
	if err != nil {
		return err
	}
	if err := w.Start(); err != nil {
		return err
	}
	s.mu.Lock()
	s.cworker = w
	s.mu.Unlock()
	return nil
}

// ClusterWorker returns the daemon's worker half, nil unless JoinCluster
// succeeded. Tests use it to kill a worker mid-campaign.
func (s *Server) ClusterWorker() *cluster.Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cworker
}

// Coordinator returns the daemon's coordinator (never nil after New).
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// clusterHealth is the /healthz cluster block: the worker view when
// this daemon joined a coordinator, its own coordinator view otherwise.
func (s *Server) clusterHealth() cluster.Health {
	if w := s.ClusterWorker(); w != nil {
		return w.Health()
	}
	return s.coord.Health()
}

// handleBatch is POST /cluster/batch: the worker half's run intake. A
// daemon that never joined a cluster refuses batches — only a worker
// executes on a coordinator's behalf.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	cw := s.ClusterWorker()
	if cw == nil {
		httpError(w, http.StatusServiceUnavailable, "this daemon is not a cluster worker (start it with -join)")
		return
	}
	cw.HandleBatch(w, r)
}

// simulate is the daemon's one way to execute a run, and the
// coordinator's local executor as it stands. It decodes the dispatched
// spec, checks its content hash, attaches the checkpointer, applies
// wrapCfg, runs it under the per-run deadline with retry (a diverging
// run retries on ADI), and marshals the RunView payload. It touches no
// result home or journal: the job's gather callback (executeMisses)
// keeps the result on the daemon that owns the job, and the worker half
// wraps it with its own (executeForCoordinator).
func (s *Server) simulate(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
	var spec ConfigSpec
	if err := json.Unmarshal(run.Spec, &spec); err != nil {
		return nil, fmt.Errorf("serve: undecodable run spec: %w", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, fmt.Errorf("serve: run spec does not materialize here: %w", err)
	}
	h, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	if h != run.Hash {
		return nil, fmt.Errorf("serve: config hash mismatch: coordinator sent %s, this daemon computes %s (version skew?)", run.Hash, h)
	}
	s.checkpointerFor(&cfg, h)
	cfg.Obs = s.reg
	cfg.MaxWallTime = s.opts.RunTimeout
	if s.wrapCfg != nil {
		cfg = s.wrapCfg(run.Index, cfg)
	}
	res, err := sim.RunWithRetry(ctx, cfg, sim.RetryPolicy{MaxAttempts: s.opts.Retries + 1})
	if err != nil {
		return nil, err
	}
	s.mExecuted.Inc()
	return json.Marshal(newRunView(spec, h, res))
}

// executeForCoordinator is the worker half's executor. A worker answers
// from its own result home when it can, and otherwise simulates and
// keeps the payload there before returning it. The coordinator's daemon
// decides whether the run is done, so a failed keep here (counted in
// serve/store_errors) still returns the payload.
func (s *Server) executeForCoordinator(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
	if data, ok := s.lookupResult(run.Hash); ok {
		s.mCacheHits.Inc()
		s.mCached.Inc()
		return data, nil
	}
	s.mCacheMisses.Inc()
	payload, err := s.simulate(ctx, run)
	if err != nil {
		return nil, err
	}
	_ = s.keepResult(run.Hash, payload)
	return payload, nil
}

// executeMisses sends a job's cache-missing runs through the
// coordinator — to live cluster workers, or with none alive to the
// daemon's own executor under its RunWorkers bound — and gathers each
// outcome into the job. A payload is kept before its run record is
// journaled, and a run whose payload cannot be kept fails, so replay
// never claims bytes it lost. A failure lands on its run alone
// (runFailed). audits carries the audit-selected triage decisions,
// scored here from the gathered payloads so workers need not hold the
// model.
func (s *Server) executeMisses(ctx context.Context, j *Job, missIdx []int, audits map[int]sim.TriageDecision) {
	runs := make([]sim.RemoteRun, len(missIdx))
	for k, i := range missIdx {
		specBytes, _ := json.Marshal(j.Specs[i])
		runs[k] = sim.RemoteRun{Job: j.ID, Index: i, Hash: j.hashes[i], Spec: specBytes}
		// A spec that fails to marshal leaves Spec empty; Execute rejects
		// that run through its validator and the failure lands below.
	}
	_ = s.coord.Execute(ctx, runs, func(k int, payload []byte, err error) {
		i := missIdx[k]
		if err == nil {
			err = s.keepResult(j.hashes[i], payload)
		}
		if err != nil {
			s.runFailed(j, i, err)
			return
		}
		if d, ok := audits[i]; ok {
			var v struct {
				Severity []float64 `json:"severity"`
			}
			if json.Unmarshal(payload, &v) == nil && len(v.Severity) > 0 {
				if absErr, scored := s.triager.ObserveAudit(d, seriesMax(v.Severity)); scored {
					j.addAudit(absErr)
				}
			}
		}
		j.setRunDone(i)
		s.journalRec(journalRecord{Type: recRun, Job: j.ID, Run: i, State: RunDone})
	})
}

// runFailed classifies a failed run and lands it on the job — the one
// place run failures are classified, whichever daemon executed the run.
// Runs cut by a campaign-wide cancellation (client cancel, drain, job
// deadline) are skipped: they said nothing about their config and are
// journaled only via the job's finished record. A per-run deadline — a
// local *sim.RunTimeoutError or a worker's RemoteRunError.TimedOut — is
// that run's own failure, and the only run event serve/timeouts counts.
func (s *Server) runFailed(j *Job, i int, err error) {
	var rte *sim.RunTimeoutError
	var rre *sim.RemoteRunError
	timedOut := errors.As(err, &rte) || (errors.As(err, &rre) && rre.TimedOut)
	skipped := !timedOut && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errJobTimeout))
	if timedOut {
		s.mTimeouts.Inc()
	}
	j.setRunFailed(i, err, skipped)
	if !skipped {
		s.journalRec(journalRecord{Type: recRun, Job: j.ID, Run: i, State: RunFailed, Error: err.Error()})
	}
}
