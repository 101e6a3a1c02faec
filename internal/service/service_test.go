// In-package tests for the daemon's admission control: round-robin
// fairness, queue shedding, eager cancellation, deadlines, and request
// validation. The gate seam in Config lets these tests hold workers at
// a deterministic point, so dispatch order is asserted exactly rather
// than statistically.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer starts a Server behind a real listener and returns a
// client bound to it. Close and cleanup are registered on t.
func testServer(t *testing.T, cfg Config) (*Client, *Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		hs.Close()
	})
	return &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}, s
}

// dispatchLog records the order the worker picks jobs up in.
type dispatchLog struct {
	mu      sync.Mutex
	clients []string
}

func (d *dispatchLog) add(c string) {
	d.mu.Lock()
	d.clients = append(d.clients, c)
	d.mu.Unlock()
}

func (d *dispatchLog) snapshot() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.clients...)
}

// plugGate blocks jobs from the "plug" client until release is closed
// (or the job is cancelled), records every dispatch, and optionally
// slows normal jobs down to build queue pressure.
func plugGate(log *dispatchLog, release <-chan struct{}, slow time.Duration) func(context.Context, *job) {
	return func(ctx context.Context, j *job) {
		log.add(j.client)
		if j.client == "plug" {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return
		}
		if slow > 0 {
			select {
			case <-time.After(slow):
			case <-ctx.Done():
			}
		}
	}
}

// submitT1 submits an instant (simulation-free) job for the client.
func submitT1(t *testing.T, c *Client, client string) JobStatus {
	t.Helper()
	st, err := c.Submit(context.Background(), JobRequest{Experiment: "t1", Client: client})
	if err != nil {
		t.Fatalf("submit for %s: %v", client, err)
	}
	return st
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, c *Client, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want one of %v", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairRoundRobin pins the scheduler's per-client fairness exactly:
// with the single worker held on a plug job, client A back-logs five
// jobs while B, C, and D submit one each; dispatch must lap the clients
// (A B C D) before returning to A's backlog, not drain A first.
func TestFairRoundRobin(t *testing.T) {
	log := &dispatchLog{}
	release := make(chan struct{})
	c, _ := testServer(t, Config{Workers: 1, QueueDepth: 16, gate: plugGate(log, release, 0)})

	plug := submitT1(t, c, "plug")
	waitState(t, c, plug.ID, StateRunning)

	var last JobStatus
	for i := 0; i < 5; i++ {
		last = submitT1(t, c, "A")
	}
	submitT1(t, c, "B")
	submitT1(t, c, "C")
	submitT1(t, c, "D")

	close(release)
	waitState(t, c, last.ID, StateDone)

	got := log.snapshot()
	want := []string{"plug", "A", "B", "C", "D", "A", "A", "A", "A"}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestQueueShedding pins the admission bound: with the worker held and
// the queue full, a submit sheds with 429 and a Retry-After hint, and
// cancelling a queued job frees its slot immediately.
func TestQueueShedding(t *testing.T) {
	log := &dispatchLog{}
	release := make(chan struct{})
	c, _ := testServer(t, Config{Workers: 1, QueueDepth: 2, gate: plugGate(log, release, 0)})

	plug := submitT1(t, c, "plug")
	waitState(t, c, plug.ID, StateRunning)

	q1 := submitT1(t, c, "A")
	submitT1(t, c, "B")

	_, err := c.Submit(context.Background(), JobRequest{Experiment: "t1", Client: "C"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("submit into full queue: got %v, want 429", err)
	}

	// Cancelling a queued job dequeues it eagerly, freeing a slot.
	st, err := c.Cancel(context.Background(), q1.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st.State != StateCancelled || st.Seq != 0 || st.Bytes != 0 {
		t.Fatalf("cancelled queued job: state %s seq %d bytes %d, want cancelled/0/0", st.State, st.Seq, st.Bytes)
	}
	if _, err := c.Submit(context.Background(), JobRequest{Experiment: "t1", Client: "C"}); err != nil {
		t.Fatalf("submit after eager dequeue freed a slot: %v", err)
	}
	close(release)
}

// TestCancelRunning cancels the plug job mid-execution: its context
// must unwind the gate and the job must finalize as cancelled.
func TestCancelRunning(t *testing.T) {
	log := &dispatchLog{}
	release := make(chan struct{}) // never closed: only ctx unblocks
	c, _ := testServer(t, Config{Workers: 1, gate: plugGate(log, release, 0)})

	plug := submitT1(t, c, "plug")
	waitState(t, c, plug.ID, StateRunning)
	if _, err := c.Cancel(context.Background(), plug.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st := waitState(t, c, plug.ID, StateCancelled)
	if st.Error == "" {
		t.Fatalf("cancelled running job has no error message")
	}
}

// TestDeadline pins the server-side deadline: a job whose gate consumes
// its whole budget fails with a deadline error, not done/cancelled.
func TestDeadline(t *testing.T) {
	gate := func(ctx context.Context, j *job) { <-ctx.Done() }
	c, _ := testServer(t, Config{Workers: 1, gate: gate})

	st, err := c.Submit(context.Background(), JobRequest{Experiment: "fig3d", TimeoutMS: 50, Client: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, c, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "deadline exceeded") {
		t.Fatalf("deadline job error = %q, want deadline exceeded", fin.Error)
	}
}

// TestValidation walks the request validator's rejection surface; every
// case must come back 400 with a JSON error, never a 5xx or a panic.
func TestValidation(t *testing.T) {
	c, _ := testServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"experiments":"all"}`},
		{"trailing garbage", `{"experiment":"t1"} {"experiment":"t2"}`},
		{"bad experiment", `{"experiment":"fig99"}`},
		{"bad scale", `{"scale":-3}`},
		{"bad devices", `{"devices":1000000}`},
		{"negative timeout", `{"timeout_ms":-1}`},
		{"fault name without plan", `{"fault_name":"x"}`},
		{"bad fault plan", `{"fault_plan":"no such preset or grammar"}`},
		{"bad client", `{"client":"has spaces!"}`},
		{"wrong type", `{"scale":"big"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeJobRequest(strings.NewReader(tc.body))
			if err == nil {
				if _, err = req.Normalize(); err == nil {
					t.Fatalf("request %q validated, want error", tc.body)
				}
			}
			resp, herr := c.http().Post(c.url("/v1/jobs"), "application/json", strings.NewReader(tc.body))
			if herr != nil {
				t.Fatal(herr)
			}
			resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Fatalf("POST %q: status %d, want 400", tc.body, resp.StatusCode)
			}
		})
	}

	// The empty object is a complete request: every field defaults.
	req, err := DecodeJobRequest(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Experiment != "all" || req.Scale != 16 || req.Devices != 1 {
		t.Fatalf("defaults = %+v, want all/16/1", req)
	}
}

// TestLoadConcurrent is the load test the issue names: 32 clients race
// 8 jobs each through a single-worker server with a bounded queue,
// while metrics scrapes run concurrently. Asserted: queue-depth
// shedding really happens (and retries recover from it), the first
// dispatch lap after the plug releases serves all 32 clients exactly
// once, every client's cancelled job finalizes correctly, and the final
// bookkeeping balances with zero failed jobs. Run under -race, the test
// is also the data-race check on the metrics and counter paths.
func TestLoadConcurrent(t *testing.T) {
	const clients = 32
	const jobsPer = 8

	log := &dispatchLog{}
	release := make(chan struct{})
	c, _ := testServer(t, Config{
		Workers: 1, QueueDepth: 64, RetainJobs: 1024,
		gate: plugGate(log, release, 3*time.Millisecond),
	})
	ctx := context.Background()

	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
	}

	// Phase 1: hold the worker on a plug job, then queue every client's
	// head job. With the worker held, no dispatch happens, so the ring
	// order is exactly the submission order.
	plug := submitT1(t, c, "plug")
	waitState(t, c, plug.ID, StateRunning)
	ids := make([][]string, clients)
	for i, name := range names {
		ids[i] = append(ids[i], submitT1(t, c, name).ID)
	}

	// Phase 2: release the worker and race the remaining submissions,
	// cancellations, and metrics scrapes.
	close(release)

	var mu sync.Mutex
	sheds := 0
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{BaseURL: c.BaseURL, HTTPClient: c.HTTPClient, Name: names[i]}
			for k := 1; k < jobsPer; k++ {
				for {
					st, err := cl.Submit(ctx, JobRequest{Experiment: "t1"})
					if err == nil {
						mu.Lock()
						ids[i] = append(ids[i], st.ID)
						mu.Unlock()
						break
					}
					var se *StatusError
					if errors.As(err, &se) && se.Code == 429 {
						mu.Lock()
						sheds++
						mu.Unlock()
						time.Sleep(2 * time.Millisecond)
						continue
					}
					t.Errorf("client %s submit: %v", names[i], err)
					return
				}
				if k == 3 {
					mu.Lock()
					id := ids[i][3]
					mu.Unlock()
					if _, err := cl.Cancel(ctx, id); err != nil {
						t.Errorf("client %s cancel: %v", names[i], err)
					}
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			if _, err := c.Metrics(ctx); err != nil {
				t.Errorf("metrics scrape: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// Drain: every job must reach a terminal state.
	states := map[JobState]int{}
	for i := range names {
		for k, id := range ids[i] {
			st := waitState(t, c, id, StateDone, StateFailed, StateCancelled)
			states[st.State]++
			if st.State == StateFailed {
				t.Errorf("job %s (client %s #%d) failed: %s", id, names[i], k, st.Error)
			}
			if k == 3 && st.State == StateCancelled && st.Seq == 0 && st.Bytes != 0 {
				t.Errorf("job %s cancelled before dispatch but has %d output bytes", id, st.Bytes)
			}
			if st.State == StateDone && st.Bytes == 0 {
				t.Errorf("job %s done with no output", id)
			}
		}
	}
	waitState(t, c, plug.ID, StateDone)

	// Shedding must have occurred and been survivable: every accepted
	// job finished, so accepted == done + cancelled with zero failures.
	if sheds == 0 {
		t.Errorf("no submissions shed: queue bound never engaged (depth 64, %d jobs)", clients*jobsPer)
	}
	if got := states[StateDone] + states[StateCancelled]; got != clients*jobsPer {
		t.Errorf("done %d + cancelled %d = %d, want %d", states[StateDone], states[StateCancelled], got, clients*jobsPer)
	}

	// Fairness: the first dispatch lap after the plug serves all 32
	// clients exactly once, whatever order their backlogs grew in.
	disp := log.snapshot()
	if len(disp) < 1+clients {
		t.Fatalf("only %d dispatches recorded, want at least %d", len(disp), 1+clients)
	}
	lap := map[string]int{}
	for _, client := range disp[1 : 1+clients] {
		lap[client]++
	}
	for _, name := range names {
		if lap[name] != 1 {
			t.Errorf("first lap served client %s %d times, want exactly once (lap: %v)", name, lap[name], disp[1:1+clients])
		}
	}

	// The scrape after the dust settles reflects the shed counter.
	scrape, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape, `abacusd_jobs_total{event="shed"}`) {
		t.Errorf("metrics scrape missing shed counter after %d sheds", sheds)
	}
}

// TestJobsShareCellsAcrossDevices: every job renders through one cell
// cache, so two jobs that differ only in devices share their homogeneous
// cells — the second job simulates nothing (its image counters stay put,
// since every simulated cell forks an image) and serves the same bytes.
func TestJobsShareCellsAcrossDevices(t *testing.T) {
	c, s := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	render := func(devices int) []byte {
		st, err := c.Submit(ctx, JobRequest{Experiment: "fig10a", Scale: 256, Devices: devices, Client: "alice"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := render(1)
	before := s.images.Stats()
	if before.ImageMisses == 0 {
		t.Fatal("the first job simulated no cells")
	}
	eight := render(8)
	if after := s.images.Stats(); after != before {
		t.Fatalf("the devices=8 job simulated cells again: image stats %+v -> %+v", before, after)
	}
	if string(one) != string(eight) {
		t.Fatal("fig10a bytes depend on devices")
	}
}
