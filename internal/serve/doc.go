// Package serve is the campaign service daemon behind cmd/hotgauged: a
// JSON-over-HTTP front end that turns the batch toolchain into a
// long-running service. Clients POST a campaign (a list of run specs),
// poll job status, stream live progress as SSE or NDJSON (one progress
// event per resolved run), and fetch per-run results and
// Section-4-style text reports.
//
// The subsystem is built from three pieces: a bounded job queue with
// explicit backpressure (HTTP 429 + Retry-After when full), a worker
// pool that executes jobs with per-job cancellation, and a
// content-addressed result home — the canonical hash of each normalized
// sim.Config (Config.Hash) addresses its marshaled result, so
// resubmitted configs are served byte-identically without
// re-simulation. A daemon keeps each result's bytes in one place, picked
// in New: the on-disk result store with Options.DataDir, an LRU under
// Options.CacheBytes otherwise. Jobs keep run states and hashes only,
// so an in-memory daemon serves a finished job's result only while its
// LRU holds the bytes. A job's cache misses take one execution path
// whatever the topology: they go through the daemon's cluster
// coordinator, which shards them across joined workers or, with none
// alive, simulates them on its local executor under the RunWorkers
// bound. Graceful shutdown drains in-flight jobs under a deadline while
// cancelling queued ones. Every moving part reports into an obs.Registry
// exposed at /metrics, with readiness (queue depth, in-flight jobs) at
// /healthz.
//
// The execution path is fault-tolerant: panicking, diverging or wedged
// runs fail alone with per-run attribution (sim.RunCtx's panic
// isolation plus Options.RunTimeout, counted in serve/timeouts), runs
// failing transiently are retried with backoff (Options.Retries), jobs
// are bounded by Options.JobTimeout, and submission bodies by
// Options.MaxBodyBytes (413). Options.FaultRate wires internal/fault's
// random injection into every run for dev-mode recovery drills.
package serve
