// Command hotgauged is the HotGauge campaign service daemon: a
// JSON-over-HTTP front end to the co-simulation toolchain. Clients
// submit campaigns (lists of run specs), poll job status, stream live
// progress as SSE or NDJSON, and fetch per-run results and
// Section-4-style reports; repeated configs are served from a
// content-addressed result cache without re-simulation.
//
// Examples:
//
//	hotgauged -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/jobs -d '{"configs":[{"workload":"gcc","node":7,"steps":50}]}'
//	curl -N localhost:8080/jobs/job-000001/events
//	curl -s localhost:8080/jobs/job-000001/results/0
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM starts a graceful drain: the queue stops accepting
// (429/503), queued jobs are cancelled, and in-flight jobs get -drain
// to finish before being cancelled at the next step boundary.
//
// Every daemon is also a cluster coordinator: point more daemons at it
// with -join and campaigns shard across them by config hash, with
// heartbeat leases, work stealing and exactly-once result gathering:
//
//	hotgauged -addr :8080 -data-dir /var/lib/hotgauge        # coordinator
//	hotgauged -addr :8081 -join http://coord:8080            # worker
//
// See docs/OPERATIONS.md for topologies and docs/HTTP_API.md for the
// wire protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/serve"
	"hotgauge/internal/surrogate"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 16, "job queue capacity (full queue returns 429)")
	workers := flag.Int("workers", 1, "jobs executed concurrently")
	runWorkers := flag.Int("run-workers", 0, "runs simulated at once, daemon-wide (0 = GOMAXPROCS)")
	cacheMB := flag.Int("cache-mb", 64, "in-memory result cache budget in MiB (unused with -data-dir)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline for in-flight jobs")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-time limit; an exceeding run fails alone (0 = unlimited)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-time limit from execution start (0 = unlimited)")
	retries := flag.Int("retries", 0, "retry attempts for runs failing with transient errors (exponential backoff + jitter); a diverging solve retries on the ADI solver")
	maxBodyMB := flag.Int("max-body-mb", 8, "maximum POST /jobs body size in MiB (larger requests get 413)")
	solver := flag.String("solver", "", "default thermal solver for specs that leave it unset: explicit | adi (implicit is an alias for adi); folded into specs before hashing, so cache keys and cluster shards stay coherent (empty = explicit)")
	stack := flag.String("stack", "", "default stacked-scenario preset for specs that leave stack and layers unset: core-on-memory | memory-on-core | gpu-sm; folded into specs before hashing, like -solver (empty = single die)")
	faultRate := flag.Float64("fault-rate", 0, "dev-only: inject random per-step panics/errors/stalls at this rate to exercise the recovery paths")
	faultSeed := flag.Int64("fault-seed", 1, "dev-only: deterministic seed for -fault-rate injection")
	dataDir := flag.String("data-dir", "", "durable state directory: job journal, on-disk result store and run checkpoints; a restarted daemon replays it and resumes interrupted campaigns (empty = in-memory only)")
	fsync := flag.String("fsync", "interval", "journal fsync policy: always | interval | never (requires -data-dir)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "snapshot each executed run every N steps so interrupted runs resume mid-flight (0 = off; requires -data-dir)")
	surrogatePath := flag.String("surrogate", "", "fitted surrogate model file (see hotgauge -surrogate-fit): enables predict-first triage — specs that leave surrogate unset are opted in before hashing, and only frontier / low-confidence / audit-selected runs simulate exactly")
	triageBand := flag.Float64("triage-band", 0, "guard band below the 0.5 hotspot-severity threshold within which predicted runs are exact-verified anyway; folded into specs that leave it unset (0 = 0.1; requires -surrogate)")
	auditFrac := flag.Float64("audit-frac", 0, "fraction of confidently-skippable runs exact-verified regardless, to measure predicted-vs-exact error; folded into specs that leave it unset (0 = 0.1; requires -surrogate)")
	join := flag.String("join", "", "coordinator base URL to join as a cluster worker (e.g. http://coord:8080); empty runs standalone/coordinator")
	workerName := flag.String("worker", "", "stable worker name on the coordinator (default: host-port of -addr; requires -join)")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this worker back on (default derived from -addr; requires -join)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "coordinator lease window: a worker silent this long is declared dead and its runs reassigned")
	batch := flag.Int("batch", 4, "runs pushed to a worker per dispatch batch (also bounds what a dying worker can strand)")
	chaosProfile := flag.String("chaos-profile", "", "dev-only: seeded network fault injection on every cluster RPC — a preset name (flaky | lossy), @file, or inline JSON chaos schedule; empty disables")
	chaosSeed := flag.Int64("chaos-seed", 1, "dev-only: deterministic seed for -chaos-profile fault draws; the same profile + seed replays the same faults")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	if *faultRate > 0 {
		log.Printf("hotgauged: FAULT INJECTION ENABLED (rate=%g seed=%d) — dev mode only", *faultRate, *faultSeed)
	}
	if *chaosProfile != "" {
		log.Printf("hotgauged: CHAOS INJECTION ENABLED (profile=%s seed=%d) — dev mode only", *chaosProfile, *chaosSeed)
	}
	if *checkpointEvery > 0 && *dataDir == "" {
		log.Fatalf("hotgauged: -checkpoint-every requires -data-dir")
	}
	if (*triageBand != 0 || *auditFrac != 0) && *surrogatePath == "" {
		log.Fatalf("hotgauged: -triage-band and -audit-frac require -surrogate")
	}
	var model *surrogate.Model
	if *surrogatePath != "" {
		var err error
		if model, err = surrogate.Load(*surrogatePath); err != nil {
			log.Fatalf("hotgauged: %v", err)
		}
		fp, _ := surrogate.Fingerprint(model)
		log.Printf("hotgauged: surrogate triage enabled: model %s (%d training runs, fingerprint %s)",
			*surrogatePath, len(model.Keys), fp)
	}
	// Resolve the worker identity before building the server: the chaos
	// transport names this endpoint in partition schedules, so a worker
	// daemon must carry its worker name from the start.
	var wname, wself string
	if *join != "" {
		wname, wself = workerIdentity(*workerName, *advertise, *addr)
	}
	reg := obs.NewRegistry()
	opts := serve.Options{
		QueueSize:       *queue,
		Workers:         *workers,
		RunWorkers:      *runWorkers,
		CacheBytes:      int64(*cacheMB) << 20,
		Registry:        reg,
		RunTimeout:      *runTimeout,
		JobTimeout:      *jobTimeout,
		Retries:         *retries,
		MaxBodyBytes:    int64(*maxBodyMB) << 20,
		DefaultSolver:   *solver,
		DefaultStack:    *stack,
		FaultRate:       *faultRate,
		FaultSeed:       *faultSeed,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		CheckpointEvery: *checkpointEvery,
		ClusterLeaseTTL: *leaseTTL,
		ClusterBatch:    *batch,
		ChaosProfile:    *chaosProfile,
		ChaosSeed:       *chaosSeed,
		ChaosSelf:       wname,
		TriageBand:      *triageBand,
		AuditFrac:       *auditFrac,
	}
	if model != nil {
		opts.Surrogate = model
	}
	srv, err := serve.New(opts)
	if err != nil {
		log.Fatalf("hotgauged: %v", err)
	}
	if *dataDir != "" {
		snap := reg.Snapshot()
		log.Printf("hotgauged: durable mode: data-dir=%s fsync=%s checkpoint-every=%d recovered_jobs=%d",
			*dataDir, *fsync, *checkpointEvery, int(snap.Counters[serve.MetricRecoveredJobs]))
	}

	var handler http.Handler = srv
	if *verbose {
		handler = logRequests(srv)
	}
	// Slowloris hardening: bound how long a client may dribble headers
	// and body, and reap idle keep-alive connections. WriteTimeout stays
	// zero on purpose — /jobs/{id}/events streams for a job's lifetime.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("hotgauged: listening on %s (queue=%d workers=%d cache=%dMiB)", *addr, *queue, *workers, *cacheMB)

	// Joining happens after the listener is up: the coordinator may dial
	// back with a batch the moment registration lands. JoinCluster keeps
	// retrying for a while, so worker/coordinator boot order is free.
	if *join != "" {
		if err := srv.JoinCluster(*join, wname, wself); err != nil {
			log.Fatalf("hotgauged: %v", err)
		}
		log.Printf("hotgauged: joined %s as worker %q (advertising %s)", *join, wname, wself)
	} else {
		log.Printf("hotgauged: coordinating (lease-ttl=%s batch=%d); workers join with -join", *leaseTTL, *batch)
	}

	select {
	case err := <-errc:
		log.Fatalf("hotgauged: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("hotgauged: draining (deadline %s)", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("hotgauged: drain deadline hit, in-flight jobs cancelled: %v", err)
	} else {
		log.Printf("hotgauged: drained cleanly")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("hotgauged: http shutdown: %v", err)
	}
}

// workerIdentity resolves the worker's cluster name and advertised URL
// from the -worker/-advertise/-addr flags: explicit values win, and the
// defaults derive from the listen address (hostname-port as the name,
// http://127.0.0.1:port as the dial-back URL when -addr has no host).
// Multi-host deployments must set -advertise — loopback is only right
// when coordinator and worker share a machine.
func workerIdentity(name, adv, addr string) (string, string) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		host, port = "", addr
	}
	if adv == "" {
		dial := host
		if dial == "" || dial == "0.0.0.0" || dial == "::" {
			dial = "127.0.0.1"
		}
		adv = "http://" + net.JoinHostPort(dial, port)
	}
	if name == "" {
		hn, err := os.Hostname()
		if err != nil || hn == "" {
			hn = "worker"
		}
		name = hn + "-" + port
	}
	return name, adv
}

// logRequests is a minimal request logger for -v.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, fmtLatency(time.Since(start)))
	})
}

func fmtLatency(d time.Duration) string {
	if d >= time.Second {
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}
