package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// opResult is what one timed operation reports back to the loop.
type opResult struct {
	lat  time.Duration // the op's timed span
	runs int           // runs the op resolved (simulated or served from cache)
	// outs holds the op's canonical output bytes keyed by the input they
	// answer: the config or campaign index.
	outs map[int][]byte
}

// instance is one set-up workload: everything built before the first
// timed operation.
type instance interface {
	// do runs operation i on behalf of client c and checks its outputs;
	// tr is nil outside the traced phase.
	do(ctx context.Context, c, i int, tr *tracer) (opResult, error)
	// verify runs the cross-path checks on the outputs for the first
	// digestOps inputs.
	verify(ctx context.Context, outs map[int][]byte) error
	// layers returns the per-layer metrics once the traced phase is over.
	layers(ctx context.Context, tr *tracer) (map[string]float64, error)
	close() error
}

// phase is the outcome of one closed-loop measuring window.
type phase struct {
	lats      []float64 // ms, one per successful op
	runs      int
	attempted int
	failed    int
	elapsed   time.Duration
	errs      []string       // the first few failure messages
	outs      map[int][]byte // outputs of the inputs below digestOps
}

// runsPerSec is the phase's throughput in resolved runs per second.
func (p phase) runsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.runs) / p.elapsed.Seconds()
}

const maxErrs = 5

// runPhase drives the instance closed-loop for dur: each of the clients
// issues its next operation only when the previous one has completed.
// Client c owns operations c, c+clients, c+2·clients, …, continuing from
// next[c], so every phase of a run gets fresh inputs and no two clients
// ever hold the same operation. Operations in flight at the deadline
// finish and count; the window ends when the last one does.
func runPhase(ctx context.Context, inst instance, next []int, dur time.Duration, tr *tracer) phase {
	clients := len(next)
	p := phase{outs: map[int][]byte{}}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := next[c]
				next[c] += clients
				r, err := inst.do(ctx, c, i, tr)
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					if len(p.errs) < maxErrs {
						p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				} else {
					p.lats = append(p.lats, float64(r.lat)/float64(time.Millisecond))
					p.runs += r.runs
					for k, o := range r.outs {
						if k < digestOps {
							p.outs[k] = o
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// quantile returns the q-quantile (0 < q < 1) of xs by the rule of
// Python's statistics.quantiles (its default "exclusive" method), which is
// how the benchmark's acceptance computes quartiles: the value at rank
// q·(n+1), interpolated, and extrapolated from the end pair beyond it. q =
// 0.5 is the ordinary median. NaN for no values.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch n := len(s); n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	default:
		pos := q * float64(n+1)
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
}

// tailPercentiles are the candidate tail percentiles, in permille.
var tailPercentiles = []int{999, 990, 900, 500}

// tailPercentile picks the highest percentile (in permille) that leaves
// at least ten of n samples beyond it; 500 (the median) when none does.
func tailPercentile(n int) int {
	for _, pm := range tailPercentiles {
		atOrBelow := (n*pm + 999) / 1000 // ceil(n·pm/1000)
		if n-atOrBelow >= 10 {
			return pm
		}
	}
	return 500
}

// span is one timed call into a layer, recorded by the harness around a
// public API call. Spans of one operation share its op id; Parent is the
// id of the enclosing span (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends, plus named
// values the program reports about itself (such as a job's queue wait
// from its status timestamps). A nil *tracer is the untraced baseline:
// every method is a no-op.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), values: map[string][]float64{}} }

// observe records one named value.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// valuesOf returns every value observed under name.
func (t *tracer) valuesOf(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.values[name]...)
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations in ms of every closed span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timeCalls measures the mean wall time of fn in µs: it calls fn in
// batches of at least one pass over n inputs until each batch has run
// for a few milliseconds, and returns the median over five batches.
func timeCalls(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	const batches = 5
	const minBatch = 5 * time.Millisecond
	per := make([]float64, batches)
	for b := range per {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < minBatch || calls < n {
			fn(calls % n)
			calls++
		}
		per[b] = time.Since(t0).Seconds() * 1e6 / float64(calls)
	}
	return quantile(per, 0.5)
}
