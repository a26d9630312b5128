package sim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hotgauge/internal/obs"
)

// Progress is a point-in-time view of a campaign's advancement,
// delivered to CampaignOptions.OnProgress after every completed run.
type Progress struct {
	// Completed is how many runs have finished, including failures.
	Completed int
	// Failed is how many of those returned an error.
	Failed int
	// Total is the campaign size.
	Total int
	// Elapsed is the wall time since the campaign started.
	Elapsed time.Duration
	// ETA is the estimated remaining wall time, extrapolated from the
	// mean per-run time so far; zero after the last run.
	ETA time.Duration
}

// CampaignOptions tunes CampaignOpts. The zero value reproduces
// Campaign's behavior.
type CampaignOptions struct {
	// Workers caps concurrent runs (0 = GOMAXPROCS).
	Workers int
	// Obs, when non-nil, is threaded into every run whose own
	// Config.Obs is nil, aggregating per-stage timers and counters
	// across workers (all metrics are atomic). The campaign itself
	// records campaign/total, campaign/completed, campaign/failed and
	// the live campaign/progress and campaign/eta_seconds gauges.
	Obs *obs.Registry
	// OnProgress, when non-nil, is invoked after every completed run.
	// Calls are serialized; keep it cheap (it runs on worker
	// goroutines).
	OnProgress func(Progress)
}

// Campaign runs a batch of configurations in parallel across CPUs,
// preserving result order. Independent runs continue past failures; the
// returned error joins every per-run error (errors.Join), and results
// of successful runs are valid even when err != nil.
func Campaign(cfgs []Config) ([]*Result, error) {
	return CampaignOpts(cfgs, CampaignOptions{})
}

// CampaignOpts is Campaign with worker, observability and progress
// controls.
func CampaignOpts(cfgs []Config, opts CampaignOptions) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	reg := opts.Obs
	reg.Gauge("campaign/total").Set(float64(len(cfgs)))
	completedC := reg.Counter("campaign/completed")
	failedC := reg.Counter("campaign/failed")
	progressG := reg.Gauge("campaign/progress")
	etaG := reg.Gauge("campaign/eta_seconds")

	var mu sync.Mutex
	completed, failed := 0, 0
	finish := func(runErr error) {
		mu.Lock()
		defer mu.Unlock()
		completed++
		completedC.Inc()
		if runErr != nil {
			failed++
			failedC.Inc()
		}
		p := Progress{
			Completed: completed,
			Failed:    failed,
			Total:     len(cfgs),
			Elapsed:   time.Since(start),
		}
		if completed < p.Total {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(completed) * float64(p.Total-completed))
		}
		progressG.Set(float64(completed) / float64(max(1, p.Total)))
		etaG.Set(p.ETA.Seconds())
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}

	// runOne executes one run behind a worker-level recover: Run already
	// isolates panics on the run path, so this backstop only catches
	// panics in the thin bookkeeping code around it — either way a panic
	// costs one run, not the pool.
	panicsC := reg.Counter(MetricPanics)
	runOne := func(i int) (res *Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				panicsC.Inc()
				res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		cfg := cfgs[i]
		if cfg.Obs == nil {
			cfg.Obs = reg
		}
		return Run(cfg)
	}

	// Bounded worker pool: a fixed set of workers pulls run indices from
	// a channel, so a 10k-run campaign creates `workers` goroutines, not
	// one (mostly blocked) goroutine per run.
	workers = min(max(1, workers), len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = runOne(i)
				finish(errs[i])
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("sim: run %d (%s on core %d): %w",
				i, cfgs[i].Workload.Name, cfgs[i].Core, err))
		}
	}
	return results, errors.Join(joined...)
}
