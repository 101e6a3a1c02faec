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
	"reflect"
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

// TestCancelBeforeRunIsJournaled: a job a worker has popped but that is
// cancelled before execute takes its lock finishes as cancelled through
// the journal, so the next boot neither re-enqueues nor runs it.
func TestCancelBeforeRunIsJournaled(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	c, s, shutdown := journalServer(t, dir, Config{Workers: 1,
		gate: plugGate(&dispatchLog{}, release, 0)})
	plug := submitT1(t, c, "plug")
	waitState(t, c, plug.ID, StateRunning)
	st := submitT1(t, c, "alice")
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	// What the worker's pop does, then a cancel that lands before execute.
	if !s.sched.remove(j) {
		t.Fatalf("job %s is not queued", st.ID)
	}
	j.mu.Lock()
	j.cancelled = true
	j.mu.Unlock()
	s.execute(j)
	if got := j.status(); got.State != StateCancelled {
		t.Fatalf("job state after execute = %s, want cancelled", got.State)
	}
	shutdown()

	c2, _, _ := journalServer(t, dir, Config{Workers: 1})
	got := waitState(t, c2, st.ID, StateDone, StateFailed, StateCancelled)
	if got.State != StateCancelled {
		t.Fatalf("after restart job %s is %s (%d bytes), want cancelled", st.ID, got.State, got.Bytes)
	}
}

// dedupedCount reads the server's deduped-submit counter.
func dedupedCount(s *Server) uint64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return s.met.jobs["deduped"]
}

// TestDedupeHitWaitsForAcceptAppend: a submit that hits the dedupe map is
// answered only after the original job's accept append has returned, so
// an id a dedupe hit acknowledges is on disk. The journal's before hook
// holds the first append (the first job's accept; the gate keeps the job
// from finishing) while the duplicate arrives.
func TestDedupeHitWaitsForAcceptAppend(t *testing.T) {
	hold := func(ctx context.Context, j *job) { <-ctx.Done() }
	c, s, _ := journalServer(t, t.TempDir(), Config{Workers: 1, gate: hold})
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	s.cfg.Journal.SetHooks(func([]byte) error {
		first.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}, nil)

	ctx := context.Background()
	req := JobRequest{Experiment: "t1", Client: "alice", DedupeKey: "k-1"}
	type answer struct {
		st  JobStatus
		err error
	}
	submit := func() chan answer {
		ch := make(chan answer, 1)
		go func() {
			st, err := c.Submit(ctx, req)
			ch <- answer{st, err}
		}()
		return ch
	}
	orig := submit()
	<-entered
	dup := submit()
	for deadline := time.Now().Add(10 * time.Second); dedupedCount(s) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the duplicate submit never reached the dedupe check")
		}
	}
	select {
	case a := <-dup:
		close(release)
		t.Fatalf("dedupe hit answered (%s, %v) before the original's accept append returned", a.st.ID, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	a1, a2 := <-orig, <-dup
	if a1.err != nil || a2.err != nil {
		t.Fatalf("submits: %v, %v", a1.err, a2.err)
	}
	if a2.st.ID != a1.st.ID {
		t.Fatalf("dedupe hit returned %s, want %s", a2.st.ID, a1.st.ID)
	}
}

// TestDedupeNeverAcknowledgesShedJob: with the queue full, concurrent
// submits sharing a dedupe key are all shed. None may be answered with
// the id of a job that admission then rejects (that id would 404).
func TestDedupeNeverAcknowledgesShedJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	c, _ := testServer(t, Config{Workers: 1, QueueDepth: 1, gate: plugGate(&dispatchLog{}, release, 0)})
	plug := submitT1(t, c, "plug")
	waitState(t, c, plug.ID, StateRunning)
	submitT1(t, c, "fill") // the queue is now full
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 300; i++ {
		req := JobRequest{Experiment: "t1", Client: "alice", DedupeKey: fmt.Sprintf("k-%d", i)}
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := c.Submit(ctx, req)
				var se *StatusError
				if err == nil {
					_, serr := c.Status(ctx, st.ID)
					t.Errorf("submit with a full queue acknowledged %s (status: %v)", st.ID, serr)
				} else if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
					t.Errorf("submit with a full queue: %v, want 429", err)
				}
			}()
		}
		wg.Wait()
	}
}

// journaled is the part of a job's status its journal records keep:
// a job that was not terminal comes back queued and unstarted, output
// survives only for done jobs, and times keep millisecond resolution.
func journaled(st JobStatus) JobStatus {
	ms := func(t time.Time) time.Time { return time.UnixMilli(t.UnixMilli()) }
	if !st.State.terminal() {
		st.State = StateQueued
	}
	if st.State != StateDone {
		st.Bytes = 0
	}
	st.Seq, st.StartedAt = 0, nil
	st.SubmittedAt = ms(st.SubmittedAt)
	if st.FinishedAt != nil {
		fin := ms(*st.FinishedAt)
		st.FinishedAt = &fin
	}
	return st
}

// snapshot lists a server's jobs through the journaled projection,
// with each done job's output and the dedupe map.
func snapshot(t *testing.T, c *Client, s *Server) ([]JobStatus, map[string][]byte, map[string]string) {
	t.Helper()
	ctx := context.Background()
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string][]byte{}
	for i, st := range list {
		list[i] = journaled(st)
		if st.State == StateDone {
			if outs[st.ID], err = c.Result(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return list, outs, maps.Clone(s.dedupe)
}

// TestJournalMappingRoundTrip: the compaction snapshot of a server
// holding done, failed, cancelled, running and queued jobs (some with
// dedupe keys) folds and rebuilds into a fresh server with the same job
// list, the same output bytes and the same dedupe map; and folding the
// uncompacted history gives the same state as folding the snapshot.
func TestJournalMappingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// "hold" jobs run until cancelled; "late" ones until their deadline.
	gate := func(ctx context.Context, j *job) {
		if j.client != "alice" {
			<-ctx.Done()
		}
	}
	c, s, _ := journalServer(t, dir, Config{Workers: 1, gate: gate})
	submit := func(client, key string, timeoutMS int64) JobStatus {
		t.Helper()
		st, err := c.Submit(ctx, JobRequest{Experiment: "t1", Client: client,
			DedupeKey: key, TimeoutMS: timeoutMS})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitState(t, c, submit("alice", "", 0).ID, StateDone)
	waitState(t, c, submit("alice", "k-done", 0).ID, StateDone)
	waitState(t, c, submit("late", "k-failed", 1).ID, StateFailed)
	waitState(t, c, submit("hold", "k-running", 0).ID, StateRunning)
	submit("hold", "k-queued", 0)
	cancelled := submit("hold", "", 0)
	if _, err := c.Cancel(ctx, cancelled.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, cancelled.ID, StateCancelled)
	wantList, wantOut, wantDedupe := snapshot(t, c, s)

	live := s.liveRecords()
	var compacted, history replay
	for _, r := range live {
		compacted.apply(r)
	}
	if _, err := journal.Replay(dir, history.apply); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(history, compacted) {
		t.Errorf("folding the history and folding its compaction differ:\n%+v\n%+v", history, compacted)
	}

	dir2 := t.TempDir()
	jl, err := journal.Open(dir2, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range live {
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	hold := func(ctx context.Context, j *job) { <-ctx.Done() }
	c2, s2, _ := journalServer(t, dir2, Config{Workers: 1, gate: hold})
	gotList, gotOut, gotDedupe := snapshot(t, c2, s2)
	if !reflect.DeepEqual(gotList, wantList) {
		t.Errorf("rebuilt job list differs:\n got %+v\nwant %+v", gotList, wantList)
	}
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Errorf("rebuilt outputs differ: %d jobs vs %d", len(gotOut), len(wantOut))
	}
	if !maps.Equal(gotDedupe, wantDedupe) {
		t.Errorf("rebuilt dedupe map %v, want %v", gotDedupe, wantDedupe)
	}
}

// TestClientRetriesTransient503: a 503 is retried for a GET and for a
// submit that carries a dedupe key, and not for a plain submit, whose
// lost response may hide a created job.
func TestClientRetriesTransient503(t *testing.T) {
	for code, want := range map[int]bool{429: true, 502: true, 503: true, 504: true,
		400: false, 404: false, 409: false, 500: false} {
		if retriableStatus(code) != want {
			t.Errorf("retriableStatus(%d) = %v, want %v", code, !want, want)
		}
	}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			writeError(w, http.StatusServiceUnavailable, "restarting (injected)")
			return
		}
		writeJSON(w, http.StatusOK, JobStatus{ID: "j000001"})
	}))
	defer srv.Close()
	ctx := context.Background()
	c := &Client{BaseURL: srv.URL, MaxRetries: 2,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		rng: func() float64 { return 1 }}
	for _, tc := range []struct {
		name  string
		call  func() error
		retry bool
	}{
		{"GET", func() error { _, err := c.Status(ctx, "j000001"); return err }, true},
		{"keyed submit", func() error {
			_, err := c.Submit(ctx, JobRequest{Experiment: "t1", DedupeKey: "k-1"})
			return err
		}, true},
		{"plain submit", func() error { _, err := c.Submit(ctx, JobRequest{Experiment: "t1"}); return err }, false},
	} {
		calls.Store(0)
		err := tc.call()
		var se *StatusError
		switch {
		case tc.retry && (err != nil || calls.Load() != 2):
			t.Errorf("%s: %d attempts, err %v; want a retry that succeeds", tc.name, calls.Load(), err)
		case !tc.retry && (!errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || calls.Load() != 1):
			t.Errorf("%s: %d attempts, err %v; want one attempt failing with 503", tc.name, calls.Load(), err)
		}
	}
}
