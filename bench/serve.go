package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
)

const (
	// openLoopRate is serve-durable's open-loop arrival rate in jobs/s.
	openLoopRate = 500
	// maxGenLateMS bounds the open-loop generator's p99 lateness: past it
	// the latencies would measure the generator, and the run is invalid.
	maxGenLateMS = 5.0
	// closedConns is the closed-loop client count: one HTTP connection per
	// core of the measured machine.
	closedConns = 2
	// mixedWarm is how many of the most popular serve-mixed requests the
	// set-up warms.
	mixedWarm = 8
)

func init() {
	for _, name := range []string{"serve-durable", "serve-mixed"} {
		register(&workloadDef{
			name:      name,
			prepare:   buildDaemon,
			pass:      servePass,
			check:     serveCheck,
			summarize: serveSummary,
		})
	}
}

// durableExperiments are the cheap, cache-hit requests serve-durable
// sends: every job costs the service and journal work, not simulation.
var durableExperiments = []string{"t1", "t2", "mixes", "fig10a", "fig12", "fig16a"}

// durableStream returns n serve-durable requests: each experiment equally
// often, in seeded order, so every seed asks for the same work.
func durableStream(seed int64, n int, stream uint64) []service.JobRequest {
	out := make([]service.JobRequest, n)
	for i := range out {
		out[i] = service.JobRequest{Experiment: durableExperiments[i%len(durableExperiments)], Scale: 256}
	}
	rand.New(rand.NewPCG(uint64(seed), stream)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixedCombos lists every serve-mixed request in popularity order. The
// order is fixed, not seeded, so the Zipf head costs the same for every
// seed.
func mixedCombos() []service.JobRequest {
	var out []service.JobRequest
	for _, exp := range []string{"fig10a", "fig10b", "fig12", "fig16a", "cluster", "faults", "topology"} {
		for _, scale := range []int64{64, 128, 256, 512} {
			for _, devices := range []int{2, 4, 8} {
				for _, fault := range []string{"cardloss", "flap", "wear"} {
					out = append(out, service.JobRequest{Experiment: exp, Scale: scale, Devices: devices, FaultPlan: fault})
				}
			}
		}
	}
	rand.New(rand.NewPCG(1, 0x72616e6b)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixedStream returns n serve-mixed requests, Zipf distributed over
// mixedCombos: rank k gets n·w_k of the jobs with w_k ∝ 1/(k+1), rounded
// by largest remainder, in one fixed shuffled order that the seed rotates.
// The stream spans many more (scale, devices, fault plan) suite keys than
// abacusd keeps, so which suites are evicted, and how many cells
// re-simulate, depends on the order; rotating one order, rather than
// shuffling afresh, gives every seed the same eviction pattern from a
// different starting job.
func mixedStream(seed int64, n int) []service.JobRequest {
	combos := mixedCombos()
	var h float64
	for k := range combos {
		h += 1 / float64(k+1)
	}
	counts := make([]int, len(combos))
	rem := make([]float64, len(combos))
	left := n
	for k := range combos {
		share := float64(n) / (h * float64(k+1))
		counts[k] = int(share)
		rem[k] = share - float64(counts[k])
		left -= counts[k]
	}
	order := make([]int, len(combos))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	out := make([]service.JobRequest, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, combos[k])
		}
	}
	rand.New(rand.NewPCG(1, 0x6d697865)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	k := rand.New(rand.NewPCG(uint64(seed), 0x726f7461)).IntN(n)
	return append(out[k:], out[:k]...)
}

// serveRequests returns a serve pass's warm-up, open-loop and closed-loop
// requests. Warm-up sends every request of the durable mix, or the
// mixedWarm most popular mixed requests, once each in seeded order.
func serveRequests(o *options) (warm, open, closed []service.JobRequest) {
	if o.workload == "serve-durable" {
		open = durableStream(o.seed, o.size.OpenJobs, 1)
		closed = durableStream(o.seed, o.size.ClosedJobs, 2)
		return durableStream(o.seed, len(durableExperiments), 3), open, closed
	}
	closed = mixedStream(o.seed, o.size.MixedJobs)
	warm = mixedCombos()[:mixedWarm]
	rand.New(rand.NewPCG(uint64(o.seed), 0x7761726d)).Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	return warm, nil, closed
}

// reqKey names a request by the knobs that shape its bytes.
func reqKey(r service.JobRequest) string {
	return fmt.Sprintf("%s scale=%d devices=%d fault=%s", r.Experiment, r.Scale, r.Devices, r.FaultPlan)
}

func daemonPath(o *options) string { return filepath.Join(o.root, ".bench_build", "bin", "abacusd") }

// buildDaemon builds cmd/abacusd from source once per invocation; the
// build is not measured.
func buildDaemon(ctx context.Context, o *options) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", daemonPath(o), "./cmd/abacusd")
	cmd.Dir = o.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build abacusd: %w", err)
	}
	return nil
}

// jobRec is one served job as the client saw it.
type jobRec struct {
	req        service.JobRequest
	lane       int       // client connection, for the trace
	due        time.Time // open loop: when the job was due to be sent
	sent       time.Time
	accepted   time.Time // submit response received
	waitStart  time.Time
	done       time.Time // result received
	id         string
	submitCode int
	resultCode int
	digest     string
	bytes      int64
}

func (r *jobRec) ok() bool {
	return r.submitCode == http.StatusAccepted && r.resultCode == http.StatusOK
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// servePass starts a fresh abacusd (with a fresh journal for
// serve-durable) and warms it, setupReps times, then runs the timed load
// on the last daemon and stops it.
func servePass(ctx context.Context, o *options, i int, traced bool) (*passResult, error) {
	durable := o.workload == "serve-durable"
	p := newPassResult()
	p.Outputs = map[string]output{}
	tr := newTracer(traced)
	_, open, closed := serveRequests(o)

	pass := tr.begin("serve.pass", nil, 0, "")
	var (
		d        *daemon
		warmRecs []jobRec
		setups   []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, warmRecs, err = serveSetup(ctx, o, fmt.Sprintf("%d-%d", i, rep), tr, pass); err != nil {
			return nil, err
		}
		defer d.kill()
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.Vals["setup_s"] = median(setups)
	c := newConn(d.base)
	defer c.close()

	m0, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	var openRecs []jobRec
	if durable {
		phase := tr.begin("serve.open_loop", pass, 0, "")
		if openRecs, err = openLoop(ctx, d.base, open); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		traceJobs(tr, phase, openRecs)
		phase.end(map[string]any{"jobs": len(openRecs), "rate": openLoopRate})
	}
	phase := tr.begin("serve.closed_loop", pass, 0, "")
	closedRecs, wall, err := closedLoop(ctx, d.base, closed)
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	traceJobs(tr, phase, closedRecs)
	phase.end(map[string]any{"jobs": len(closedRecs), "conns": closedConns})
	m1, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	c.close()
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	pass.end(nil)

	p.Wall = wall
	p.Vals["peak_rss_mb"] = rss
	completed := recordJobs(p, durable, wall, warmRecs, openRecs, closedRecs)
	if completed > 0 {
		p.Vals["service.fsyncs_per_job"] = (m1["abacusd_journal_fsyncs_total"] - m0["abacusd_journal_fsyncs_total"]) / float64(completed)
		p.Vals["service.appends_per_job"] = (m1["abacusd_journal_appends_total"] - m0["abacusd_journal_appends_total"]) / float64(completed)
	}
	if n := m1["abacusd_job_duration_seconds_count"] - m0["abacusd_job_duration_seconds_count"]; n > 0 {
		p.Vals["service.server_job_ms"] = (m1["abacusd_job_duration_seconds_sum"] - m0["abacusd_job_duration_seconds_sum"]) / n * 1000
	}
	for name, metric := range map[string]string{
		"cluster.image_hits":   "abacusd_image_cache_hits_total",
		"cluster.image_misses": "abacusd_image_cache_misses_total",
		"cluster.probe_hits":   "abacusd_image_probe_hits_total",
		"cluster.probe_misses": "abacusd_image_probe_misses_total",
	} {
		p.Vals[name] = m1[metric] - m0[metric]
	}
	p.Spans = tr.collected()
	return p, nil
}

// recordJobs checks and tallies a pass's warm-up, open-loop and
// closed-loop jobs and returns how many timed jobs completed. Every job is
// an attempted operation; a refused or failed job, or a result that
// differs from an earlier result for the same request, fails. p50_ms is
// open-loop latency from the due time on serve-durable and closed-loop
// latency on serve-mixed.
func recordJobs(p *passResult, durable bool, wall float64, warm, open, closed []jobRec) int {
	var completed, closedOK, shed int
	var resultBytes int64
	var late []float64
	for phase, recs := range [][]jobRec{warm, open, closed} {
		for k := range recs {
			r := &recs[k]
			p.Attempted++
			if r.submitCode == http.StatusTooManyRequests {
				shed++
			}
			if phase == 1 {
				late = append(late, ms(r.sent.Sub(r.due)))
			}
			if !r.ok() {
				p.Failed++
				continue
			}
			key := reqKey(r.req)
			out, seen := p.Outputs[key]
			if seen && out.Digest != r.digest {
				p.Failed++
				continue
			}
			p.Outputs[key] = output{Digest: r.digest, Jobs: out.Jobs + 1}
			if phase == 0 {
				continue
			}
			completed++
			resultBytes += r.bytes
			p.Lists["submit_ms"] = append(p.Lists["submit_ms"], ms(r.accepted.Sub(r.sent)))
			p.Lists["wait_ms"] = append(p.Lists["wait_ms"], ms(r.done.Sub(r.waitStart)))
			if phase == 2 {
				closedOK++
			}
			if durable == (phase == 1) {
				p.Lists["latency_ms"] = append(p.Lists["latency_ms"], ms(r.done.Sub(r.due)))
			}
		}
	}
	p.Vals["jobs_per_s"] = float64(closedOK) / wall
	p.Vals["service.shed"] = float64(shed)
	if durable {
		// Past maxGenLateMS, or with any job refused, the latencies would
		// measure the generator (or a shedding daemon), not the service.
		p.Vals["service.gen_late_ms.p99"] = quantile(late, 0.99)
		if lateP99 := p.Vals["service.gen_late_ms.p99"]; lateP99 > maxGenLateMS || shed > 0 {
			p.Invalid = fmt.Sprintf("at %d jobs/s the generator ran %.2f ms late at p99 (bound %.0f ms) and %d jobs were refused",
				openLoopRate, lateP99, maxGenLateMS, shed)
		}
	}
	if completed > 0 {
		p.Vals["result_bytes"] = float64(resultBytes) / float64(completed)
	}
	return completed
}

// serveSetup starts abacusd and runs the warm-up jobs: the set-up a
// serve pass measures, from exec to warm caches.
func serveSetup(ctx context.Context, o *options, name string, tr *tracer, parent *openSpan) (*daemon, []jobRec, error) {
	warm, _, _ := serveRequests(o)
	var args []string
	if o.workload == "serve-durable" {
		args = []string{"-journal", filepath.Join(o.tmp, "journal-"+name)}
	}
	setup := tr.begin("serve.setup", parent, 0, "")
	d, err := startDaemon(ctx, daemonPath(o), filepath.Join(o.tmp, "abacusd-"+name+".log"), args)
	if err != nil {
		return nil, nil, err
	}
	c := newConn(d.base)
	defer c.close()
	recs := make([]jobRec, len(warm))
	for k := range warm {
		r := &recs[k]
		r.req = warm[k]
		r.req.Client = "warm"
		err := c.run(ctx, r)
		if err == nil && !r.ok() {
			err = fmt.Errorf("warm-up job %s: submit %d, result %d", reqKey(r.req), r.submitCode, r.resultCode)
		}
		if err != nil {
			d.kill()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	traceJobs(tr, setup, recs)
	setup.end(map[string]any{"jobs": len(warm)})
	return d, recs, nil
}

// traceJobs records each job as a span with its submit and wait phases.
func traceJobs(tr *tracer, parent *openSpan, recs []jobRec) {
	if tr == nil {
		return
	}
	for k := range recs {
		r := &recs[k]
		job := tr.begin("service.job", parent, r.lane, r.id)
		job.s.Start = r.due.UnixMicro()
		tr.record("service.submit", job, r.lane, r.id, r.sent, r.accepted, map[string]any{"code": r.submitCode})
		end := r.accepted
		if !r.waitStart.IsZero() {
			tr.record("service.wait", job, r.lane, r.id, r.waitStart, r.done,
				map[string]any{"code": r.resultCode, "bytes": r.bytes})
			end = r.done
		}
		job.endAt(end, map[string]any{"experiment": r.req.Experiment, "scale": r.req.Scale, "devices": r.req.Devices})
	}
}

// openLoop sends reqs at openLoopRate on one connection, on schedule
// whether or not earlier jobs finished, while a second connection
// collects the results in order. Latency counts from each job's due time,
// so a stall charges every job it delayed.
func openLoop(ctx context.Context, base string, reqs []service.JobRequest) ([]jobRec, error) {
	gen, col := newConn(base), newConn(base)
	defer gen.close()
	defer col.close()
	recs := make([]jobRec, len(reqs))
	ready := make(chan int, len(reqs)) // one send per job: the generator never blocks
	period := time.Second / openLoopRate
	start := time.Now().Add(period)
	var genErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		for i := range reqs {
			r := &recs[i]
			r.req, r.lane = reqs[i], 1
			r.req.Client = "open"
			r.due = start.Add(time.Duration(i) * period)
			if d := time.Until(r.due); d > 0 {
				time.Sleep(d)
			}
			r.sent = time.Now()
			var err error
			r.id, r.submitCode, err = gen.submit(ctx, r.req)
			r.accepted = time.Now()
			if err != nil {
				genErr = err
				return
			}
			ready <- i
		}
	}()
	var colErr error
	for i := range ready {
		r := &recs[i]
		if r.submitCode != http.StatusAccepted || colErr != nil {
			continue
		}
		r.lane = 2
		r.waitStart = time.Now()
		r.digest, r.bytes, r.resultCode, colErr = col.result(ctx, r.id)
		r.done = time.Now()
	}
	wg.Wait()
	return recs, errors.Join(genErr, colErr)
}

// closedLoop runs reqs on closedConns connections, each sending its next
// job only after the previous result arrived, and returns the batch's
// wall time in seconds.
func closedLoop(ctx context.Context, base string, reqs []service.JobRequest) ([]jobRec, float64, error) {
	recs := make([]jobRec, len(reqs))
	var next atomic.Int64
	errs := make([]error, closedConns)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < closedConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &recs[i]
				r.req, r.lane = reqs[i], 3+w
				r.req.Client = fmt.Sprintf("closed%d", w)
				if errs[w] = c.run(ctx, r); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return recs, time.Since(t0).Seconds(), errors.Join(errs...)
}

// serveSummary adds the pooled latency percentiles.
func serveSummary(ps []*passResult, vals map[string]float64) {
	lat := pooled(ps, "latency_ms")
	vals["p50_ms"] = median(lat)
	vals["service.p99_ms"] = quantile(lat, 0.99)
	vals["service.submit_ms.p50"] = median(pooled(ps, "submit_ms"))
	vals["service.submit_ms.p99"] = quantile(pooled(ps, "submit_ms"), 0.99)
	vals["service.wait_ms.p50"] = median(pooled(ps, "wait_ms"))
}

// serveCheck compares every served result with an in-process render of
// the same request.
func serveCheck(ctx context.Context, o *options, ps []*passResult) (int, error) {
	warm, open, closed := serveRequests(o)
	reqs := map[string]service.JobRequest{}
	for _, r := range append(append(warm, open...), closed...) {
		reqs[reqKey(r)] = r
	}
	want, err := expectedDigests(ctx, reqs)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for _, p := range ps {
		for key, out := range p.Outputs {
			if out.Digest != want[key] {
				fmt.Fprintf(os.Stderr, "bench: %s: served bytes differ from the in-process render\n", key)
				wrong += out.Jobs
			}
		}
	}
	return wrong, nil
}

// expectedDigests renders every request in process, one experiments
// Suite per (scale, devices, fault plan) as abacusd keys them, and returns
// the sha256 of each request's bytes.
func expectedDigests(ctx context.Context, reqs map[string]service.JobRequest) (map[string]string, error) {
	type suiteKey struct {
		scale   int64
		devices int
		fault   string
	}
	images := cluster.NewImageCache()
	suites := map[suiteKey]*experiments.Suite{}
	keys := make([]string, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := map[string]string{}
	for _, k := range keys {
		r := reqs[k]
		plan, err := r.Normalize()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		sk := suiteKey{scale: r.Scale, devices: r.Devices}
		if plan != nil {
			sk.fault = r.FaultName + "\x00" + r.FaultPlan
		}
		s := suites[sk]
		if s == nil {
			s = experiments.NewSuiteWithImages(r.Scale, images)
			s.Workers = simWorkers
			s.MaxDevices = r.Devices
			if plan != nil {
				s.SetFaultScenarios([]experiments.FaultScenario{{Name: r.FaultName, Plan: plan}})
			}
			suites[sk] = s
		}
		sel, err := experiments.Select(r.Experiment, r.Devices, r.Topology, plan != nil)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		if err := s.Render(ctx, h, sel); err != nil {
			return nil, fmt.Errorf("render %s: %w", k, err)
		}
		out[k] = fmt.Sprintf("%x", h.Sum(nil))
	}
	return out, nil
}

// daemon is a running abacusd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
}

// startDaemon launches abacusd on a free loopback port with its log in
// logPath and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, logPath string, args []string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	c := newConn(d.base)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil); err == nil && code == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("abacusd not healthy after 30s (log %s)", logPath)
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("abacusd exited during start-up: %v (log %s)", d.waitErr, logPath)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM, waits for it, and returns its
// peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, errors.New("abacusd did not drain within 30s")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("abacusd: %w", d.waitErr)
	}
	return peakRSSMB(d.cmd.ProcessState), nil
}

// kill ends the daemon if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// conn is one HTTP client connection to abacusd.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and copies the response body to sink (nil
// discards it).
func (c *conn) do(ctx context.Context, method, path string, body []byte, sink io.Writer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if sink == nil {
		sink = io.Discard
	}
	if _, err := io.Copy(sink, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// submit posts a job and returns its id.
func (c *conn) submit(ctx context.Context, req service.JobRequest) (string, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	var out bytes.Buffer
	code, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &out)
	if err != nil || code != http.StatusAccepted {
		return "", code, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		return "", code, fmt.Errorf("submit response: %w", err)
	}
	return st.ID, code, nil
}

// result waits for a job's result and returns the digest and size of
// its bytes.
func (c *conn) result(ctx context.Context, id string) (string, int64, int, error) {
	h := sha256.New()
	cw := &countingWriter{w: h}
	code, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?wait=1", nil, cw)
	return fmt.Sprintf("%x", h.Sum(nil)), cw.n, code, err
}

// run submits r's request, waits for its result, and records both.
func (c *conn) run(ctx context.Context, r *jobRec) error {
	r.sent = time.Now()
	r.due = r.sent
	var err error
	r.id, r.submitCode, err = c.submit(ctx, r.req)
	r.accepted = time.Now()
	r.waitStart = r.accepted
	if err == nil && r.submitCode == http.StatusAccepted {
		r.digest, r.bytes, r.resultCode, err = c.result(ctx, r.id)
	}
	r.done = time.Now()
	return err
}

// scrape reads abacusd's /metrics, summing each metric over its labels.
func scrape(ctx context.Context, c *conn) (map[string]float64, error) {
	var body bytes.Buffer
	code, err := c.do(ctx, http.MethodGet, "/metrics", nil, &body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}
