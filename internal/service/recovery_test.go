// Crash-safety tests: journal replay on boot, idempotent resubmission,
// panic isolation, the stuck-job watchdog, the journal degradation
// breaker, and the client's retry/resume behavior. In-package so they
// can drive the gate seam and hand-write journals.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// journalServer starts a Server journaling under dir and returns a
// client plus a shutdown func (closing the server, listener, and
// journal) so tests can stop one incarnation and boot the next.
func journalServer(t *testing.T, dir string, cfg Config) (*Client, *Server, func()) {
	t.Helper()
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jl
	s := New(cfg)
	hs := httptest.NewServer(s)
	var once atomic.Bool
	shutdown := func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		s.Close()
		hs.Close()
		jl.Close()
	}
	t.Cleanup(shutdown)
	return &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}, s, shutdown
}

// TestJournalRecoveryServesCompletedResults: results completed before a
// restart are served from the journal by the next incarnation, byte for
// byte, without re-running anything; ids keep counting where the
// previous life stopped.
func TestJournalRecoveryServesCompletedResults(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	c1, _, shutdown := journalServer(t, dir, Config{Workers: 1})
	st, err := c1.Submit(ctx, JobRequest{Experiment: "t1", Client: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	out1, err := c1.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) == 0 {
		t.Fatal("t1 rendered no bytes")
	}
	shutdown()

	c2, _, _ := journalServer(t, dir, Config{Workers: 1})
	got, err := c2.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("recovered result: %v", err)
	}
	if !bytes.Equal(got, out1) {
		t.Fatalf("recovered result differs: %d bytes vs %d", len(got), len(out1))
	}
	st2, err := c2.Status(ctx, st.ID)
	if err != nil || st2.State != StateDone {
		t.Fatalf("recovered job state = %v, %v; want done", st2.State, err)
	}
	// Fresh ids continue past the recovered ones.
	stNew, err := c2.Submit(ctx, JobRequest{Experiment: "t1", Client: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if stNew.ID <= st.ID {
		t.Fatalf("post-recovery id %s does not continue past recovered %s", stNew.ID, st.ID)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"abacusd_journal_enabled 1", "abacusd_journal_replayed_records_total"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJournalRecoveryReenqueuesInterruptedJobs: a hand-written journal
// holding one finished job and one job that never reached a terminal
// state (the crash) boots into a server that serves the first from the
// journal and runs the second to completion — with output identical to
// a fresh submit of the same request. This is the kill-and-resume
// invariant at the package level; cmd/abacusd's crash harness proves it
// against a real SIGKILLed process.
func TestJournalRecoveryReenqueuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reqBytes := []byte(`{"experiment":"t1","scale":16,"devices":1,"client":"alice"}`)
	for _, r := range []journal.Record{
		{Kind: journal.Accepted, ID: "j000001", Client: "alice", Request: reqBytes, UnixMilli: 1},
		{Kind: journal.Done, ID: "j000001", Client: "alice", Output: []byte("journaled bytes\n"), UnixMilli: 2},
		{Kind: journal.Accepted, ID: "j000002", Client: "alice", Request: reqBytes, UnixMilli: 3},
		{Kind: journal.Dispatched, ID: "j000002", Client: "alice", UnixMilli: 4},
		// ...crash: no terminal record for j000002.
	} {
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	c, _, _ := journalServer(t, dir, Config{Workers: 1})
	got1, err := c.Result(ctx, "j000001")
	if err != nil || string(got1) != "journaled bytes\n" {
		t.Fatalf("journaled result = %q, %v", got1, err)
	}
	got2, err := c.Result(ctx, "j000002") // blocks until the re-run finishes
	if err != nil {
		t.Fatalf("re-enqueued job: %v", err)
	}
	st, err := c.Submit(ctx, JobRequest{Experiment: "t1", Client: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("re-run output differs from a fresh render: %d bytes vs %d", len(got2), len(want))
	}
	m, _ := c.Metrics(ctx)
	if !strings.Contains(m, "abacusd_jobs_recovered_total 1") {
		t.Errorf("metrics missing abacusd_jobs_recovered_total 1:\n%s", grepMetrics(m, "recovered"))
	}
}

// TestDedupeKeyIdempotentAcrossRestart: a resubmit with the same dedupe
// key returns the existing job (200, same id) instead of running the
// work twice — including after a restart, because the key is journaled.
func TestDedupeKeyIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := JobRequest{Experiment: "t1", Client: "alice", DedupeKey: "submit-42"}

	c1, _, shutdown := journalServer(t, dir, Config{Workers: 1})
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Result(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	dup, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	if dup.ID != st.ID {
		t.Fatalf("duplicate submit created %s, want existing %s", dup.ID, st.ID)
	}
	m, _ := c1.Metrics(ctx)
	if !strings.Contains(m, `abacusd_jobs_total{event="deduped"} 1`) {
		t.Errorf("metrics missing deduped event:\n%s", grepMetrics(m, "jobs_total"))
	}
	shutdown()

	c2, _, _ := journalServer(t, dir, Config{Workers: 1})
	dup2, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatalf("post-restart duplicate submit: %v", err)
	}
	if dup2.ID != st.ID {
		t.Fatalf("restart lost the dedupe key: resubmit created %s, want %s", dup2.ID, st.ID)
	}
}

// TestChaosPanicFailsOnlyThatJob: an injected in-cell panic fails
// exactly the panicking job — siblings complete, the daemon keeps
// serving, and the panic is visible in the job error and the metrics.
func TestChaosPanicFailsOnlyThatJob(t *testing.T) {
	c, _ := testServer(t, Config{Workers: 1,
		Chaos: &Chaos{PanicExperiment: "t1", PanicCount: 1}})
	ctx := context.Background()

	victim := submitT1(t, c, "alice")
	var rest []JobStatus
	for i := 0; i < 3; i++ {
		rest = append(rest, submitT1(t, c, fmt.Sprintf("c%d", i)))
	}
	st := waitState(t, c, victim.ID, StateFailed)
	if !strings.Contains(st.Error, "panicked") {
		t.Fatalf("victim error = %q, want a panic message", st.Error)
	}
	for _, r := range rest {
		if got := waitState(t, c, r.ID, StateDone, StateFailed); got.State != StateDone {
			t.Fatalf("sibling %s reached %s (%s), want done", r.ID, got.State, got.Error)
		}
	}
	m, _ := c.Metrics(ctx)
	if !strings.Contains(m, "abacusd_jobs_panicked_total 1") {
		t.Errorf("metrics missing panic counter:\n%s", grepMetrics(m, "panicked"))
	}
}

// TestWatchdogAbandonsWedgedRender: a render that ignores its cancelled
// context past WatchdogGrace is abandoned — the job fails with the
// watchdog's error, the worker is freed for the next job, and the kill
// is counted.
func TestWatchdogAbandonsWedgedRender(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	gate := func(ctx context.Context, j *job) {
		if j.client == "wedge" {
			<-hang // ignores ctx: a truly stuck render
		}
	}
	c, _ := testServer(t, Config{Workers: 1, WatchdogGrace: 50 * time.Millisecond, gate: gate})
	ctx := context.Background()

	st, err := c.Submit(ctx, JobRequest{Experiment: "t1", Client: "wedge", TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, c, st.ID, StateFailed)
	if !strings.Contains(got.Error, "watchdog") {
		t.Fatalf("wedged job error = %q, want a watchdog message", got.Error)
	}
	// The worker must be free again: a normal job completes.
	next := submitT1(t, c, "alice")
	waitState(t, c, next.ID, StateDone)
	m, _ := c.Metrics(ctx)
	if !strings.Contains(m, "abacusd_watchdog_kills_total 1") {
		t.Errorf("metrics missing watchdog counter:\n%s", grepMetrics(m, "watchdog"))
	}
}

// TestJournalBreakerDegradesToMemoryOnly: persistent journal write
// failures trip the breaker after journalFailureBudget consecutive
// errors — jobs keep flowing, and the degradation is visible in
// /metrics rather than in job latency or errors.
func TestJournalBreakerDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c, _, _ := journalServer(t, dir, Config{Workers: 1,
		Chaos: &Chaos{JournalFailAfter: 1}}) // every append fails

	var last JobStatus
	for i := 0; i < journalFailureBudget+2; i++ {
		last = submitT1(t, c, "alice")
		waitState(t, c, last.ID, StateDone)
	}
	if _, err := c.Result(ctx, last.ID); err != nil {
		t.Fatalf("job flow broken by journal failures: %v", err)
	}
	m, _ := c.Metrics(ctx)
	if !strings.Contains(m, "abacusd_journal_degraded 1") {
		t.Errorf("breaker did not degrade:\n%s", grepMetrics(m, "journal"))
	}
}

// TestMetricsScrapeResilienceNames asserts every resilience metric name
// is present in a scrape of a journal-backed daemon, so a renamed or
// dropped counter fails here instead of silently breaking dashboards.
func TestMetricsScrapeResilienceNames(t *testing.T) {
	c, _, _ := journalServer(t, t.TempDir(), Config{Workers: 1})
	st := submitT1(t, c, "alice")
	waitState(t, c, st.ID, StateDone)
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"abacusd_jobs_recovered_total",
		"abacusd_jobs_panicked_total",
		"abacusd_watchdog_kills_total",
		"abacusd_journal_enabled 1",
		"abacusd_journal_degraded 0",
		"abacusd_journal_appends_total",
		"abacusd_journal_append_errors_total",
		"abacusd_journal_fsyncs_total",
		"abacusd_journal_rotations_total",
		"abacusd_journal_compactions_total",
		"abacusd_journal_replayed_records_total",
		"abacusd_journal_truncated_bytes_total",
		"abacusd_journal_segments",
		"abacusd_journal_bytes",
	} {
		if !strings.Contains(m, name) {
			t.Errorf("scrape missing %q", name)
		}
	}
}

// TestStreamOffset: ?offset=N resumes a stream mid-output, a lying
// offset clamps instead of panicking, and a negative offset is a 400.
func TestStreamOffset(t *testing.T) {
	c, _ := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	st := submitT1(t, c, "alice")
	full, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 8 {
		t.Fatalf("t1 output too small to split: %d bytes", len(full))
	}
	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := c.http().Get(c.url("/v1/jobs/" + st.ID + "/stream" + query))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}
	off := len(full) / 2
	resp, b := get(fmt.Sprintf("?offset=%d", off))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, full[off:]) {
		t.Fatalf("offset resume: code %d, %d bytes, want suffix of %d", resp.StatusCode, len(b), len(full)-off)
	}
	if state := resp.Trailer.Get("X-Abacus-Job-State"); state != string(StateDone) {
		t.Fatalf("resumed stream trailer state %q", state)
	}
	resp, b = get(fmt.Sprintf("?offset=%d", len(full)+1000))
	if resp.StatusCode != http.StatusOK || len(b) != 0 {
		t.Fatalf("past-the-end offset: code %d, %d bytes, want empty OK", resp.StatusCode, len(b))
	}
	resp, _ = get("?offset=-1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset: code %d, want 400", resp.StatusCode)
	}
}

// TestStreamFlushesBeforeJobEnds: a streaming reader receives the bytes
// a job has written while the job is still running, not only when it
// ends. The gate writes a first chunk, then holds the job until the
// client has read that chunk.
func TestStreamFlushesBeforeJobEnds(t *testing.T) {
	const first = "first chunk\n"
	read := make(chan struct{})
	gate := func(ctx context.Context, j *job) {
		j.Write([]byte(first))
		select {
		case <-read:
		case <-ctx.Done():
		}
	}
	c, _ := testServer(t, Config{Workers: 1, gate: gate})
	st := submitT1(t, c, "alice")
	got := make(chan error, 1)
	go func() {
		resp, err := c.http().Get(c.url("/v1/jobs/" + st.ID + "/stream"))
		if err != nil {
			got <- err
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, len(first))
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			got <- err
			return
		}
		if string(buf) != first {
			got <- fmt.Errorf("first chunk %q, want %q", buf, first)
			return
		}
		got <- nil
		io.Copy(io.Discard, resp.Body)
	}()
	select {
	case err := <-got:
		close(read)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(read)
		t.Fatal("the stream delivered nothing while the job ran: written chunks are not flushed")
	}
	waitState(t, c, st.ID, StateDone)
}

// grepMetrics filters a scrape to the lines mentioning substr, for
// readable failures.
func grepMetrics(m, substr string) string {
	var out []string
	for _, line := range strings.Split(m, "\n") {
		if strings.Contains(line, substr) && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// flakyTransport fails the first failures round-trips with a transport
// error, then delegates — the shape of a daemon restarting mid-request.
type flakyTransport struct {
	next     http.RoundTripper
	failures int32
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if atomic.AddInt32(&f.failures, -1) >= 0 {
		return nil, errors.New("connection refused (injected)")
	}
	return f.next.RoundTrip(r)
}

// TestClientSubmitRetriesShed: a shed submit (429) is retried with
// backoff until accepted; the Retry-After hint is honored as the floor.
func TestClientSubmitRetriesShed(t *testing.T) {
	var calls int32
	backend, _ := testServer(t, Config{Workers: 1})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && atomic.AddInt32(&calls, 1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusTooManyRequests, "queue full (injected)")
			return
		}
		r2, _ := http.NewRequestWithContext(r.Context(), r.Method, backend.url(r.URL.Path), r.Body)
		resp, err := backend.http().Do(r2)
		if err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	c := &Client{BaseURL: proxy.URL, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		rng: func() float64 { return 1 }}
	st, err := c.Submit(context.Background(), JobRequest{Experiment: "t1", Client: "alice"})
	if err != nil {
		t.Fatalf("submit through two sheds: %v", err)
	}
	if st.ID == "" || atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("submit made %d attempts (id %q), want 3", calls, st.ID)
	}
}

// TestClientSubmitTransportRetryNeedsDedupeKey: a transport error may
// have lost the response to an accepted submit, so the client resends
// only when the request carries a dedupe key; without one it fails fast
// rather than risk double-running the job.
func TestClientSubmitTransportRetryNeedsDedupeKey(t *testing.T) {
	backend, _ := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	mk := func(failures int32) *Client {
		return &Client{BaseURL: backend.BaseURL,
			HTTPClient: &http.Client{Transport: &flakyTransport{next: backend.http().Transport, failures: failures}},
			MaxRetries: 3, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
			rng: func() float64 { return 1 }}
	}
	if _, err := mk(1).Submit(ctx, JobRequest{Experiment: "t1", Client: "a"}); err == nil {
		t.Fatal("keyless submit retried through a transport error")
	}
	st, err := mk(1).Submit(ctx, JobRequest{Experiment: "t1", Client: "a", DedupeKey: "k-1"})
	if err != nil {
		t.Fatalf("keyed submit did not retry: %v", err)
	}
	if st.ID == "" {
		t.Fatal("keyed submit returned no job")
	}
	// And the keyed retry is exactly-once: the same key resubmitted
	// returns the same job.
	again, err := mk(0).Submit(ctx, JobRequest{Experiment: "t1", Client: "a", DedupeKey: "k-1"})
	if err != nil || again.ID != st.ID {
		t.Fatalf("dedupe after retry: got %s, %v; want %s", again.ID, err, st.ID)
	}
}

// TestClientStreamResumesAfterConnectionLoss: a stream cut mid-body is
// resumed from the byte offset already delivered, and the caller still
// receives every byte exactly once.
func TestClientStreamResumesAfterConnectionLoss(t *testing.T) {
	backend, _ := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	st := submitT1(t, backend, "alice")
	full, err := backend.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var offsets []string
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			mu.Lock()
			offsets = append(offsets, r.URL.Query().Get("offset"))
			first := len(offsets) == 1
			mu.Unlock()
			if first {
				// First attempt: half the bytes on the wire, then a dead
				// connection.
				w.Write(full[:len(full)/2])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}
		}
		r2, _ := http.NewRequestWithContext(r.Context(), r.Method, backend.url(r.URL.Path)+"?"+r.URL.RawQuery, r.Body)
		resp, err := backend.http().Do(r2)
		if err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Trailer", "X-Abacus-Job-State, X-Abacus-Job-Error")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		w.Header().Set("X-Abacus-Job-State", resp.Trailer.Get("X-Abacus-Job-State"))
		w.Header().Set("X-Abacus-Job-Error", resp.Trailer.Get("X-Abacus-Job-Error"))
	}))
	defer proxy.Close()

	c := &Client{BaseURL: proxy.URL, MaxRetries: 2,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		rng: func() float64 { return 1 }}
	var got bytes.Buffer
	state, err := c.Stream(ctx, st.ID, &got)
	if err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if state != StateDone {
		t.Fatalf("resumed stream state %s", state)
	}
	if !bytes.Equal(got.Bytes(), full) {
		t.Fatalf("resumed stream delivered %d bytes, want %d", got.Len(), len(full))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(offsets) != 2 || offsets[0] != "" || offsets[1] != fmt.Sprint(len(full)/2) {
		t.Fatalf("stream offsets = %v, want [\"\" %d]", offsets, len(full)/2)
	}
}

// TestParseChaos covers the spec grammar and its rejects.
func TestParseChaos(t *testing.T) {
	ch, err := ParseChaos("kill-after=8+4,torn-tail,panic=t1:2,journal-fail-after=3,journal-slow=5ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Seed != 7 || ch.KillAfterAppends != 8 || ch.KillSpread != 4 || !ch.TornTail ||
		ch.PanicExperiment != "t1" || ch.PanicCount != 2 ||
		ch.JournalFailAfter != 3 || ch.JournalSlow != 5*time.Millisecond {
		t.Fatalf("ParseChaos = %+v", ch)
	}
	// A bare panic=EXP defaults to one panic.
	if ch, err = ParseChaos("panic=t2"); err != nil || ch.PanicCount != 1 {
		t.Fatalf("panic=t2 -> count %d, %v; want 1", ch.PanicCount, err)
	}
	for _, bad := range []string{"kill-after=x", "bogus", "panic=", "journal-slow=fast", "kill-after=1+"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

// TestCompactionKeepsAcknowledgedAccepts: with segments small enough
// that compaction runs every few jobs, a crash at any append must find
// the accept of every acknowledged job on disk. The compaction snapshot
// is built under the journal's lock, so an accept journaled while it is
// built cannot fall between the snapshot and the history it replaces.
func TestCompactionKeepsAcknowledgedAccepts(t *testing.T) {
	const submitters, each = 8, 80
	dir := t.TempDir()
	ctx := context.Background()
	jl, err := journal.Open(dir, journal.Options{SegmentBytes: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	acked := map[string]bool{}
	lost := map[string]bool{}
	// The before hook runs under the journal's lock, so no append or
	// compaction changes the directory while it replays it: this is the
	// journal a crash right now would leave.
	jl.SetHooks(func([]byte) error {
		mu.Lock()
		missing := maps.Clone(acked)
		mu.Unlock()
		journal.Replay(dir, func(r journal.Record) error {
			if r.Kind == journal.Accepted {
				delete(missing, r.ID)
			}
			return nil
		})
		mu.Lock()
		maps.Copy(lost, missing)
		mu.Unlock()
		return nil
	}, nil)
	// Every job stays retained, so none may leave the journal.
	s := New(Config{Workers: 2, QueueDepth: submitters * each, RetainJobs: submitters * each, Journal: jl})
	hs := httptest.NewServer(s)
	c := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}

	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st, err := c.Submit(ctx, JobRequest{Experiment: "t1", Client: fmt.Sprintf("c%d", w)})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				acked[st.ID] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.Close()
	hs.Close()
	compactions := jl.Stats().Compactions
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if compactions < 10 {
		t.Fatalf("only %d compactions ran; the test needs many", compactions)
	}
	if len(lost) > 0 {
		t.Fatalf("%d of %d acknowledged accepts were missing from disk at some append, across %d compactions",
			len(lost), len(acked), compactions)
	}
}
