package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
)

// serveInstance drives hotgauged's HTTP API: one operation is one
// campaign job, from POST /jobs until the NDJSON event stream ends, plus
// the full GET /jobs/{id}/results body.
type serveInstance struct {
	seed uint64
	// daemons[0] takes the jobs (the coordinator, on serve-cluster);
	// the rest are its joined workers.
	daemons []daemon
	clients []*http.Client
	dir     string

	mu     sync.Mutex
	sample [][]byte // operation 0's payloads, for the layer probe
}

type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startDaemon builds a daemon behind a loopback listener.
func startDaemon(opts serve.Options) (daemon, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return daemon{}, err
	}
	return daemon{srv: srv, ts: httptest.NewServer(srv)}, nil
}

// stop closes the listener, then drains the daemon.
func (d daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// newClient is one load-generating client: a single connection, reused.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// newServeInstance sets up a durable daemon (the default fsync=interval
// journal in a fresh data dir) reached by one client per CPU, up to
// maxClients. With workers > 0 the daemon is a coordinator and that
// many in-memory worker daemons join it over loopback.
func newServeInstance(ctx context.Context, seed uint64, workers int) (_ instance, err error) {
	s := &serveInstance{seed: seed}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp("", "hotgauge-bench-"); err != nil {
		return nil, err
	}
	coord, err := startDaemon(serve.Options{DataDir: s.dir})
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, coord)
	for k := 0; k < workers; k++ {
		w, err := startDaemon(serve.Options{})
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, w)
		if err := w.srv.JoinCluster(coord.ts.URL, fmt.Sprintf("worker-%d", k), w.ts.URL); err != nil {
			return nil, err
		}
	}
	for deadline := time.Now().Add(10 * time.Second); coord.srv.Coordinator().AliveWorkers() < workers; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d workers did not join", workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for range numClients() {
		s.clients = append(s.clients, newClient())
	}

	body, err := campaignBody(warmupCampaign())
	if err != nil {
		return nil, err
	}
	reply, err := runJob(ctx, s.clients[0], coord.ts.URL, body, -1, nil)
	if err == nil {
		_, err = checkJob(reply)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func campaignBody(specs []serve.ConfigSpec) ([]byte, error) {
	return json.Marshal(struct {
		Configs []serve.ConfigSpec `json:"configs"`
	}{specs})
}

func (s *serveInstance) do(ctx context.Context, c, i int, tr *tracer) (opResult, error) {
	body, err := campaignBody(tuhCampaign(s.seed, i))
	if err != nil {
		return opResult{}, err
	}
	reply, err := runJob(ctx, s.clients[c], s.daemons[0].ts.URL, body, i, tr)
	if err != nil {
		return opResult{}, err
	}
	payloads, err := checkJob(reply)
	if err != nil {
		return opResult{}, err
	}
	if i == 0 {
		s.mu.Lock()
		s.sample = payloads
		s.mu.Unlock()
	}
	return opResult{lat: reply.lat, runs: len(payloads), outs: map[int][]byte{i: encodeRuns(payloads)}}, nil
}

// jobReply is one finished job as the client saw it.
type jobReply struct {
	lat    time.Duration  // POST until the results body is read
	hashes []string       // as acknowledged by the submit
	State  serve.JobState `json:"state"`
	Runs   []struct {
		serve.RunStatus
		Result json.RawMessage `json:"result"`
	} `json:"runs"`
}

// runJob submits one campaign, follows its NDJSON event stream to the
// end and fetches its results. With a tracer it also reads the job's
// status for the daemon's own queue-wait and execution timestamps.
func runJob(ctx context.Context, cl *http.Client, base string, body []byte, op int, tr *tracer) (jobReply, error) {
	var r jobReply
	root := tr.start("op", 0, op)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.start("http.submit", root, op)
	data, err := call(ctx, cl, http.MethodPost, base+"/jobs", body)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	var sub struct {
		ID     string   `json:"id"`
		Hashes []string `json:"config_hashes"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return r, fmt.Errorf("submit reply: %w", err)
	}
	r.hashes = sub.Hashes

	sp = tr.start("http.events", root, op)
	data, err = call(ctx, cl, http.MethodGet, base+"/jobs/"+sub.ID+"/events?format=ndjson", nil)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last serve.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return r, fmt.Errorf("event stream: %w", err)
	}
	if last.State != serve.JobDone {
		return r, fmt.Errorf("job %s ended %s: %s", sub.ID, last.State, last.Error)
	}

	sp = tr.start("http.results", root, op)
	data, err = call(ctx, cl, http.MethodGet, base+"/jobs/"+sub.ID+"/results", nil)
	tr.end(sp)
	r.lat = time.Since(t0)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("results: %w", err)
	}

	if tr != nil {
		data, err := call(ctx, cl, http.MethodGet, base+"/jobs/"+sub.ID, nil)
		if err != nil {
			return r, err
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return r, fmt.Errorf("status: %w", err)
		}
		if st.StartedAt != nil && st.FinishedAt != nil {
			tr.observe("serve.queue_wait_ms", st.StartedAt.Sub(st.SubmittedAt).Seconds()*1e3)
			tr.observe("serve.exec_ms", st.FinishedAt.Sub(*st.StartedAt).Seconds()*1e3)
		}
	}
	return r, nil
}

// call makes one request and returns the full body; any non-2xx status,
// 429 included, is an error.
func call(ctx context.Context, cl *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// checkJob checks a finished job's runs and returns their payloads in
// run order. The results body indents the payloads it embeds; compacting
// restores the bytes the daemon stored.
func checkJob(r jobReply) ([][]byte, error) {
	if r.State != serve.JobDone {
		return nil, fmt.Errorf("job state %s", r.State)
	}
	if len(r.Runs) != len(r.hashes) {
		return nil, fmt.Errorf("%d results for %d submitted runs", len(r.Runs), len(r.hashes))
	}
	payloads := make([][]byte, len(r.Runs))
	for i, run := range r.Runs {
		if run.State != serve.RunDone && run.State != serve.RunCached {
			return nil, fmt.Errorf("run %d ended %s: %s", i, run.State, run.Error)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, run.Result); err != nil {
			return nil, fmt.Errorf("run %d payload: %w", i, err)
		}
		var v serve.RunView
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
			return nil, fmt.Errorf("run %d payload: %w", i, err)
		}
		switch {
		case v.ConfigHash != r.hashes[i] || run.ConfigHash != r.hashes[i]:
			return nil, fmt.Errorf("run %d answers hash %s, submitted %s", i, v.ConfigHash, r.hashes[i])
		case v.StepsRun <= 0:
			return nil, fmt.Errorf("run %d executed %d steps", i, v.StepsRun)
		case len(v.MaxTempC) != v.StepsRun || len(v.PowerW) != v.StepsRun:
			return nil, fmt.Errorf("run %d series do not cover its %d steps", i, v.StepsRun)
		}
		payloads[i] = buf.Bytes()
	}
	return payloads, nil
}

// encodeRuns is the canonical bytes of a campaign's results: each
// payload length-prefixed, in run order.
func encodeRuns(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// verify checks, on serve-cluster, that the cluster's bytes equal those
// of the single-node path: the first two campaigns rerun on a fresh
// in-memory daemon.
func (s *serveInstance) verify(ctx context.Context, outs map[int][]byte) error {
	if len(s.daemons) == 1 {
		return nil
	}
	control, err := startDaemon(serve.Options{})
	if err != nil {
		return err
	}
	defer control.stop()
	cl := newClient()
	for i := 0; i < 2; i++ {
		body, err := campaignBody(tuhCampaign(s.seed, i))
		if err != nil {
			return err
		}
		reply, err := runJob(ctx, cl, control.ts.URL, body, i, nil)
		if err != nil {
			return fmt.Errorf("single-node control: %w", err)
		}
		payloads, err := checkJob(reply)
		if err != nil {
			return fmt.Errorf("single-node control: %w", err)
		}
		if !bytes.Equal(outs[i], encodeRuns(payloads)) {
			return fmt.Errorf("campaign %d: cluster bytes differ from the single-node path", i)
		}
	}
	return nil
}

// layers reads the sim/* metrics of whichever daemons simulated, the
// serve/* and cluster/* counters, and the HTTP spans of the traced
// phase, then probes the remaining layers with campaign 0 and its
// payloads: resubmitted to the daemon that ran it, and called into each
// layer. Registry counts cover the instance's whole life up to the probe:
// set-up, warm-up and both phases.
func (s *serveInstance) layers(ctx context.Context, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	snaps := make([]obs.Snapshot, len(s.daemons))
	for k, d := range s.daemons {
		snaps[k] = d.srv.Registry().Snapshot()
	}
	all := sumSnapshots(snaps...)
	simLayers(all, m)
	serveLayers(all, snaps[0], tr, m)
	s.mu.Lock()
	payloads := s.sample
	s.mu.Unlock()
	if payloads == nil {
		return nil, errors.New("layer probe: operation 0 did not complete")
	}
	specs := tuhCampaign(s.seed, 0)
	body, err := campaignBody(specs)
	if err != nil {
		return nil, err
	}
	if err := probeHits(ctx, s.clients[0], s.daemons[0].ts.URL, body, encodeRuns(payloads), m); err != nil {
		return nil, fmt.Errorf("hit probe: %w", err)
	}
	cfgs := make([]sim.Config, len(specs))
	for i, spec := range specs {
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	if err := probeLayers(ctx, specs, cfgs, payloads, m); err != nil {
		return nil, err
	}
	return m, nil
}

// hitProbes is how many times the hit probe resubmits a campaign.
const hitProbes = 20

// probeHits resubmits a campaign whose runs the daemon has already
// resolved, so every run is a cache hit: decode, hash, queue, journal
// and results, with no simulation. Every resubmission must return the
// miss-path bytes want; the median job latency is serve.hit_job_ms_p50.
func probeHits(ctx context.Context, cl *http.Client, base string, body, want []byte, m map[string]float64) error {
	lats := make([]float64, hitProbes)
	for k := range lats {
		reply, err := runJob(ctx, cl, base, body, -1, nil)
		if err != nil {
			return err
		}
		payloads, err := checkJob(reply)
		if err != nil {
			return err
		}
		if !bytes.Equal(encodeRuns(payloads), want) {
			return errors.New("cache-hit bytes differ from the miss-path bytes")
		}
		lats[k] = float64(reply.lat) / float64(time.Millisecond)
	}
	m["serve.hit_job_ms_p50"] = quantile(lats, 0.5)
	return nil
}

// serveProbe submits the specs to a fresh in-memory daemon as one job,
// records the daemon's layer metrics into m, runs the hit probe on the
// same job and returns its payloads.
func serveProbe(ctx context.Context, specs []serve.ConfigSpec, tr *tracer, m map[string]float64) ([][]byte, error) {
	d, err := startDaemon(serve.Options{})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	body, err := campaignBody(specs)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	reply, err := runJob(ctx, cl, d.ts.URL, body, -1, tr)
	if err != nil {
		return nil, err
	}
	payloads, err := checkJob(reply)
	if err != nil {
		return nil, err
	}
	snap := d.srv.Registry().Snapshot()
	serveLayers(snap, snap, tr, m)
	if err := probeHits(ctx, cl, d.ts.URL, body, encodeRuns(payloads), m); err != nil {
		return nil, fmt.Errorf("hit probe: %w", err)
	}
	return payloads, nil
}

func (s *serveInstance) close() error {
	var errs []error
	for _, d := range s.daemons {
		errs = append(errs, d.stop())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}
