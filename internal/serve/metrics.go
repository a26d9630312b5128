package serve

// Metric names the server records into its obs.Registry, alongside the
// sim/* and thermal/* metrics the runs themselves record (the registry
// is shared with every campaign the server executes).
const (
	// MetricCacheHits / MetricCacheMisses count the runs a daemon found
	// or did not find in its result home where it decides to simulate:
	// once per run in a job's cache pass, and once per run a worker is
	// dispatched. They mean the same with or without a result store, and
	// reading results back never counts. MetricCacheEvictions counts LRU
	// entries dropped to respect the byte budget.
	MetricCacheHits      = "serve/cache_hits"
	MetricCacheMisses    = "serve/cache_misses"
	MetricCacheEvictions = "serve/cache_evictions"
	// MetricCacheBytes / MetricCacheEntries gauge the LRU's current
	// footprint: an in-memory daemon's result payloads, bounded by
	// Options.CacheBytes. Both stay 0 on a durable daemon, whose results
	// live only in the on-disk store.
	MetricCacheBytes   = "serve/cache_bytes"
	MetricCacheEntries = "serve/cache_entries"

	// MetricJobsSubmitted counts accepted submissions;
	// MetricJobsRejected counts submissions bounced with 429 by a full
	// queue.
	MetricJobsSubmitted = "serve/jobs_submitted"
	MetricJobsRejected  = "serve/jobs_rejected"
	// Terminal job states.
	MetricJobsCompleted = "serve/jobs_completed"
	MetricJobsFailed    = "serve/jobs_failed"
	MetricJobsCancelled = "serve/jobs_cancelled"

	// MetricRunsExecuted counts runs actually simulated, on the daemon
	// that simulated them (a cluster worker, or the job's own daemon);
	// MetricRunsCached counts runs served from the result cache;
	// MetricRunsPredicted counts runs resolved predicted-only by
	// surrogate triage (the model-level surrogate/* counters live in the
	// same registry).
	MetricRunsExecuted  = "serve/runs_executed"
	MetricRunsCached    = "serve/runs_cached"
	MetricRunsPredicted = "serve/runs_predicted"

	// MetricQueueDepth / MetricInflightJobs gauge the queue backlog and
	// the jobs currently executing — the same numbers /healthz reports.
	MetricQueueDepth   = "serve/queue_depth"
	MetricInflightJobs = "serve/inflight_jobs"

	// MetricTimeouts counts deadline hits on the serving path, once each
	// and on the job's daemon: runs cut by the per-run Options.RunTimeout
	// (wherever they ran) and jobs cut by the job-level
	// Options.JobTimeout. Zero in a healthy deployment; the sim-layer
	// fault counters (sim/panics, sim/retries, sim/timeouts) live in the
	// same shared registry.
	MetricTimeouts = "serve/timeouts"

	// MetricBodyRejected counts submissions refused with 413 because the
	// request body exceeded Options.MaxBodyBytes.
	MetricBodyRejected = "serve/body_rejected"

	// MetricStoreErrors counts durability I/O failures on the serving
	// path: journal appends, result-store reads/writes, and compaction.
	// Non-zero means the daemon is running degraded (jobs still execute,
	// but a crash may lose their records; a run whose result cannot be
	// written fails) — /healthz reports "store": "degraded" while the
	// journal's sticky error is set.
	MetricStoreErrors = "serve/store_errors"
	// MetricRecoveredJobs counts jobs restored by startup journal
	// replay: terminal jobs come back read-only, jobs that were queued
	// or in-flight at the crash are requeued and re-executed.
	MetricRecoveredJobs = "serve/recovered_jobs"
	// MetricJobsDeduped counts submissions answered with an existing
	// non-terminal job's id because an identical campaign (same config
	// hashes, same order) was already queued or running.
	MetricJobsDeduped = "serve/jobs_deduped"
)
