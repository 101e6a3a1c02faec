// Package service is the simulation-as-a-service layer: an HTTP/JSON
// daemon (cmd/abacusd) that serves experiment renders to many
// concurrent clients from one shared image cache and worker pool.
//
// The API is deliberately small:
//
//	POST   /v1/jobs              submit a JobRequest  -> 202 JobStatus
//	GET    /v1/jobs              list retained jobs
//	GET    /v1/jobs/{id}         poll a job's status
//	GET    /v1/jobs/{id}/result  fetch the rendered bytes (?wait=1 blocks)
//	GET    /v1/jobs/{id}/stream  stream the bytes as the render produces them
//	DELETE /v1/jobs/{id}         cancel (queued jobs dequeue eagerly)
//	GET    /v1/experiments       list experiment ids
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness
//
// The load-bearing invariant, pinned by the golden-equivalence suite:
// a job's result bytes are exactly what the abacus-repro CLI prints for
// the same knobs. The daemon adds admission control (bounded queue,
// 429 shedding, per-client round-robin fairness) and server-side
// deadlines on top, never different bytes. Every job renders through a
// view of one experiments.Suite, so all jobs share one bounded cell cache.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/runner"
)

// Config shapes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// Workers is the number of concurrent jobs (default 2). Each job's
	// render additionally fans out over SimWorkers device simulations.
	Workers int
	// SimWorkers bounds the per-job simulation parallelism, the Suite's
	// Workers knob (default 1: within a job, renders are sequential, so
	// concurrency comes from serving many jobs at once).
	SimWorkers int
	// QueueDepth bounds admitted-but-not-dispatched jobs across all
	// clients (default 64); past it, submits shed with 429.
	QueueDepth int
	// DefaultTimeout bounds a job's execution when the request names no
	// timeout_ms (default 2m); MaxTimeout clamps requested timeouts
	// (default 10m). Both run from dispatch, not submission.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetainJobs bounds how many terminal jobs stay queryable (default
	// 256); the oldest are forgotten first.
	RetainJobs int
	// Images is the image cache every job shares (default: a fresh
	// process-wide cache). The flashabacus facade passes its shared one.
	Images *cluster.ImageCache
	// Journal, when set, makes job lifecycle durable: every accept and
	// every terminal transition (with the result bytes for done jobs) is
	// appended to the journal through recordsOf, and New folds it back
	// with the same mapping — completed and cancelled jobs stay as they
	// ended, done ones with their journaled output, and jobs that were
	// accepted or running at crash time are re-enqueued. The caller owns
	// the journal's lifetime and closes it after Close returns.
	Journal *journal.Journal
	// WatchdogGrace is how long a running render may ignore its
	// cancelled context before the watchdog abandons it: the job fails
	// and the worker moves on (default 10s). Later jobs never wait on
	// the wedged render: a cell whose computing job's context is done is
	// taken over by the next live job that needs it.
	WatchdogGrace time.Duration
	// Chaos, when set, injects the configured deterministic faults
	// (crash-at-append, render panics, journal write failures); it is
	// the seam the crash-recovery harness drives a real daemon with.
	Chaos *Chaos

	// gate, when set by in-package tests, runs after a job is dispatched
	// and before its render starts — a seam for deterministically
	// blocking workers in fairness and shedding tests. The context is
	// the job's execution context, so a blocked gate still honors
	// cancellation and shutdown.
	gate func(context.Context, *job)
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.SimWorkers < 1 {
		c.SimWorkers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.RetainJobs < 1 {
		c.RetainJobs = 256
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 10 * time.Second
	}
	if c.Images == nil {
		c.Images = cluster.NewImageCache()
	}
	return c
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	sched  *scheduler
	met    *metrics
	images *cluster.ImageCache
	// root owns the cell cache every job renders through a view of.
	root *experiments.Suite

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	nextID  int64
	nextSeq int64
	// jobs and order hold the same ids (the admitted, retained jobs), and
	// every dedupe value is one of them.
	jobs   map[string]*job
	order  []string          // job ids, submission order, for retention
	dedupe map[string]string // dedupe key -> job id
	closed bool

	// Journal write breaker: journalFailureBudget consecutive append
	// failures degrade the daemon to memory-only (visible in /metrics)
	// rather than letting a sick disk block or fail dispatch.
	jlMu       sync.Mutex
	jlFails    int
	jlDegraded bool
}

// journalFailureBudget is how many consecutive journal append failures
// trip the degradation breaker.
const journalFailureBudget = 3

// compactSegments is the segment count past which a terminal transition
// triggers journal compaction.
const compactSegments = 3

// New builds a Server and starts its workers. Callers must Close it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	root := experiments.NewSuiteWithImages(1, cfg.Images)
	root.Workers = cfg.SimWorkers
	s := &Server{
		cfg:    cfg,
		sched:  newScheduler(cfg.QueueDepth),
		met:    newMetrics(),
		images: cfg.Images,
		root:   root,
		jobs:   map[string]*job{},
		dedupe: map[string]string{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Chaos != nil && cfg.Journal != nil {
		cfg.Chaos.arm(cfg.Journal)
	}
	// Replay before the workers start, so recovered jobs are re-enqueued
	// (and recovered results queryable) before anything is dispatched.
	s.recoverFromJournal()
	s.mux = http.NewServeMux()
	s.route("POST /v1/jobs", s.handleSubmit)
	s.route("GET /v1/jobs", s.handleList)
	s.route("GET /v1/jobs/{id}", s.handleStatus)
	s.route("GET /v1/jobs/{id}/result", s.handleResult)
	s.route("GET /v1/jobs/{id}/stream", s.handleStream)
	s.route("DELETE /v1/jobs/{id}", s.handleCancel)
	s.route("GET /v1/experiments", s.handleExperiments)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// route registers a handler wrapped with request accounting; the route
// pattern doubles as the requests_total label, so label cardinality is
// the route table, not the URL space.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.request(pattern, rec.code)
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops admission, cancels queued and running jobs, and waits for
// the workers to drain. The handler keeps answering reads (status,
// results, metrics) for jobs it retains.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, j := range s.sched.close() {
		// Journaled too: a gracefully-drained queue must not re-enqueue
		// its cancelled jobs at the next boot.
		s.finish(j, StateCancelled, "server shutting down", time.Now())
	}
	s.baseCancel()
	s.wg.Wait()
}

// finish moves a job to a terminal state exactly once, counting the
// event and journaling the transition (with the output bytes for done
// jobs, so a restart can serve the result without recomputing it).
func (s *Server) finish(j *job, state JobState, errMsg string, now time.Time) bool {
	if !j.finalize(state, errMsg, now) {
		return false
	}
	s.met.jobEvent(string(state))
	recs := recordsOf(j)
	s.journalAppend(recs[len(recs)-1])
	s.maybeCompact(false)
	return true
}

// journalAppend appends one record through the degradation breaker:
// after journalFailureBudget consecutive failures the journal is marked
// degraded and skipped — job flow never blocks on a sick journal disk —
// and a later success (before the trip) resets the failure streak.
func (s *Server) journalAppend(rec journal.Record) {
	jl := s.cfg.Journal
	if jl == nil || s.journalDegraded() {
		return
	}
	err := jl.Append(rec)
	s.jlMu.Lock()
	defer s.jlMu.Unlock()
	if err == nil {
		s.jlFails = 0
		return
	}
	s.jlFails++
	if s.jlFails >= journalFailureBudget && !s.jlDegraded {
		s.jlDegraded = true
		log.Printf("abacusd: journal degraded to memory-only after %d consecutive append failures (last: %v)",
			s.jlFails, err)
	}
}

func (s *Server) journalDegraded() bool {
	s.jlMu.Lock()
	defer s.jlMu.Unlock()
	return s.jlDegraded
}

// maybeCompact collapses journal history into one base segment holding
// only the retained jobs (their accept plus, if terminal, their final
// record). Unforced calls compact only once the journal has grown past
// compactSegments segments; recovery forces one to fold the replayed
// history so the journal cannot grow across restart cycles.
func (s *Server) maybeCompact(force bool) {
	jl := s.cfg.Journal
	if jl == nil || s.journalDegraded() {
		return
	}
	if !force && jl.Stats().Segments < compactSegments {
		return
	}
	// The snapshot is taken under the journal's lock, so no append can
	// land between it and the history it replaces: an accept acknowledged
	// before the compaction is in the snapshot, one after it in the new
	// base segment. Lock order: journal, then s.mu.
	if err := jl.Compact(s.liveRecords); err != nil {
		log.Printf("abacusd: journal compaction failed: %v", err)
	}
}

// timeoutFor resolves a request's execution timeout against the
// server's default and clamp.
func (s *Server) timeoutFor(req *JobRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return timeout
}

// statusRecorder captures the response code for request accounting.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers can flush through the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the error body every non-2xx JSON response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// clientID resolves the fairness identity of a request: the body's
// client field, else the X-Abacus-Client header, else the remote host —
// so unlabelled clients on distinct hosts still get distinct queues.
func clientID(req *JobRequest, r *http.Request) (string, error) {
	if req.Client != "" {
		return req.Client, nil
	}
	if h := r.Header.Get("X-Abacus-Client"); h != "" {
		if !nameRE.MatchString(h) {
			return "", fmt.Errorf("X-Abacus-Client %q must match %s", h, nameRE)
		}
		return h, nil
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		host = r.RemoteAddr
	}
	if host == "" {
		host = "anonymous"
	}
	return host, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeJobRequest(r.Body)
	if err != nil {
		s.met.jobEvent("rejected")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan, err := req.Normalize()
	if err != nil {
		s.met.jobEvent("rejected")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	client, err := clientID(req, r)
	if err != nil {
		s.met.jobEvent("rejected")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Client = client
	timeout := s.timeoutFor(req)
	// Encoded once, for the accept record and every compaction after it;
	// a JobRequest holds only strings, integers and a bool, so Marshal
	// cannot fail.
	reqJSON, _ := json.Marshal(req)

	// The dedupe check, job creation and admission share one critical
	// section: two concurrent submits with the same key cannot both create
	// a job, and no submit can see a job the queue has not admitted.
	s.mu.Lock()
	if id, ok := s.dedupe[req.DedupeKey]; ok {
		dup := s.jobs[id]
		s.mu.Unlock()
		s.met.jobEvent("deduped")
		// Answer only once the original's accept append has returned, so a
		// dedupe hit never acknowledges an id a crash could still lose.
		select {
		case <-dup.journaled:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+id)
		writeJSON(w, http.StatusOK, dup.status())
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), *req, reqJSON, plan, timeout, time.Now())
	if err := s.sched.submit(j); err != nil {
		s.mu.Unlock()
		switch {
		case errors.Is(err, ErrQueueFull):
			s.met.jobEvent("shed")
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		default:
			s.met.jobEvent("rejected")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	s.jobs[j.id] = j
	if req.DedupeKey != "" {
		s.dedupe[req.DedupeKey] = j.id
	}
	s.order = append(s.order, j.id)
	s.retainLocked()
	s.mu.Unlock()
	s.met.jobEvent("accepted")
	// Journaled only once admission succeeded: a shed job must not be
	// resurrected at the next boot. The worker may already be running
	// the job; replay tolerates its records landing first.
	s.journalAppend(recordsOf(j)[0])
	close(j.journaled)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// retainLocked forgets the oldest terminal jobs beyond the retention
// bound. Queued and running jobs are never dropped — their count is
// bounded by queue depth plus workers.
func (s *Server) retainLocked() {
	if len(s.order) <= s.cfg.RetainJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.RetainJobs
	for _, id := range s.order {
		if j := s.jobs[id]; excess > 0 {
			j.mu.Lock()
			terminal := j.state.terminal()
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				if k := j.req.DedupeKey; k != "" && s.dedupe[k] == id {
					delete(s.dedupe, k)
				}
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, "wait cancelled: %v", r.Context().Err())
			return
		}
	}
	st := j.status()
	switch st.State {
	case StateDone:
		j.mu.Lock()
		out := append([]byte(nil), j.out...)
		j.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Abacus-Job-State", string(st.State))
		w.Write(out)
	case StateFailed, StateCancelled:
		writeJSON(w, http.StatusConflict, st)
	default:
		// Not terminal: report where the job stands instead of blocking.
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleStream writes the job's output bytes as the render produces
// them and closes once the job is terminal; the final state travels in
// the X-Abacus-Job-State trailer so a streaming client needs no
// follow-up status call. ?offset=N skips the first N bytes, letting a
// client that lost its connection resume where it stopped.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	sent := 0
	if o := r.URL.Query().Get("offset"); o != "" {
		n, err := strconv.Atoi(o)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "offset %q must be a non-negative integer", o)
			return
		}
		sent = n
	}
	j.mu.Lock()
	if sent > len(j.out) {
		// Clamp a lying offset: j.out only grows, so clamping once keeps
		// every later j.out[sent:] slice in bounds.
		sent = len(j.out)
	}
	j.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Trailer", "X-Abacus-Job-State, X-Abacus-Job-Error")
	rc := http.NewResponseController(w)

	// A disconnected client never signals the job's cond, so mirror the
	// request context into a broadcast that wakes the wait loop below.
	stop := context.AfterFunc(r.Context(), func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	for {
		j.mu.Lock()
		for sent == len(j.out) && !j.state.terminal() && r.Context().Err() == nil {
			j.cond.Wait()
		}
		chunk := append([]byte(nil), j.out[sent:]...)
		// finalize and Write share j.mu, so a terminal state observed
		// with the full buffer snapshotted means chunk is the last data.
		final := j.state.terminal() && sent+len(chunk) == len(j.out)
		errMsg := j.errMsg
		state := j.state
		j.mu.Unlock()

		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			sent += len(chunk)
			rc.Flush() // a broken connection fails the next Write
		}
		if r.Context().Err() != nil {
			return
		}
		if final {
			w.Header().Set("X-Abacus-Job-State", string(state))
			w.Header().Set("X-Abacus-Job-Error", headerSafe(errMsg))
			return
		}
	}
}

// headerSafe flattens an error message for a header value: a panic
// message can carry newlines, which are illegal in HTTP headers.
func headerSafe(msg string) string {
	msg = strings.ReplaceAll(msg, "\r", " ")
	return strings.ReplaceAll(msg, "\n", " ")
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.cancel(j)
	writeJSON(w, http.StatusOK, j.status())
}

// cancel requests cancellation: a still-queued job dequeues eagerly and
// finalizes immediately; a running job has its render context
// cancelled and finalizes when the render unwinds; a terminal job is
// left as it ended.
func (s *Server) cancel(j *job) {
	j.mu.Lock()
	j.cancelled = true
	cancelRun := j.cancelRun
	j.mu.Unlock()
	if s.sched.remove(j) {
		s.finish(j, StateCancelled, "cancelled by client", time.Now())
		return
	}
	if cancelRun != nil {
		cancelRun()
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, experiments.IDs())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var js journalScrape
	if jl := s.cfg.Journal; jl != nil {
		js.configured = true
		js.stats = jl.Stats()
	}
	js.degraded = s.journalDegraded()
	s.met.render(w, s.sched.depth(), s.images.Stats(), js)
}

// worker is the dispatch loop: pop the next fairly-scheduled job and
// run it to a terminal state. Exits when the scheduler closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.sched.pop()
		if j == nil {
			return
		}
		s.execute(j)
	}
}

// execute runs one dispatched job to a terminal state.
func (s *Server) execute(j *job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()

	s.mu.Lock()
	s.nextSeq++
	seq := s.nextSeq
	s.mu.Unlock()

	j.mu.Lock()
	if j.state.terminal() { // cancel raced dispatch
		j.mu.Unlock()
		return
	}
	if j.cancelled {
		j.mu.Unlock()
		s.finish(j, StateCancelled, "cancelled by client", time.Now())
		return
	}
	j.state = StateRunning
	j.seq = seq
	j.started = time.Now()
	j.cancelRun = cancel
	j.cond.Broadcast()
	j.mu.Unlock()
	s.met.jobEvent("dispatched")
	s.met.runningDelta(+1)
	defer s.met.runningDelta(-1)

	// The render runs in a child goroutine so this worker can watchdog
	// it: a render that ignores its cancelled context past WatchdogGrace
	// is abandoned — its job failed, the goroutine left to unwind on its
	// own — instead of wedging the worker forever.
	renderErr := make(chan error, 1)
	go func() { renderErr <- s.runJob(ctx, j) }()

	var err error
	wedged := false
	select {
	case err = <-renderErr:
	case <-ctx.Done():
		grace := time.NewTimer(s.cfg.WatchdogGrace)
		select {
		case err = <-renderErr:
			grace.Stop()
		case <-grace.C:
			wedged = true
			s.met.watchdogKill()
			log.Printf("abacusd: watchdog abandoned job %s: render ignored cancellation for %s",
				j.id, s.cfg.WatchdogGrace)
		}
	}

	now := time.Now()
	j.mu.Lock()
	cancelled := j.cancelled
	started := j.started
	j.mu.Unlock()

	var state JobState
	var errMsg string
	var pe *runner.PanicError
	switch {
	case wedged:
		state, errMsg = StateFailed, fmt.Sprintf(
			"watchdog: render ignored cancellation for %s past its deadline", s.cfg.WatchdogGrace)
	case err == nil:
		state = StateDone
	case errors.As(err, &pe):
		// The panic fails this job alone; the stack goes to the log, the
		// value to the client.
		state, errMsg = StateFailed, fmt.Sprintf("job panicked: %v", pe.Value)
		s.met.jobPanicked()
		log.Printf("abacusd: job %s panicked: %v\n%s", j.id, pe.Value, pe.Stack)
	case cancelled:
		state, errMsg = StateCancelled, "cancelled by client"
	case s.baseCtx.Err() != nil:
		state, errMsg = StateCancelled, "server shutting down"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		state, errMsg = StateFailed, fmt.Sprintf("deadline exceeded after %s", j.timeout)
	default:
		state, errMsg = StateFailed, err.Error()
	}
	if s.finish(j, state, errMsg, now) && state == StateDone {
		s.met.observe(j.req.Experiment, now.Sub(started).Seconds())
	}
}

// runJob is the render body executed in execute's child goroutine: the
// test gate, chaos panic injection, and the render itself, with a
// recover so a panic anywhere in the job fails the job, not the worker.
// (The runner pool and flight cache recover their own goroutines; this
// catches panics on the job's calling path.)
func (s *Server) runJob(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*runner.PanicError); ok {
				err = pe
				return
			}
			err = &runner.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if s.cfg.gate != nil {
		s.cfg.gate(ctx, j)
	}
	if s.cfg.Chaos.takePanic(j.req.Experiment) {
		panic(fmt.Sprintf("chaos: injected panic in render of %s", j.req.Experiment))
	}
	return s.render(ctx, j)
}

// render renders the job's selection through a view of the root suite
// at the job's knobs; the job itself is the io.Writer, so streaming
// readers see bytes live.
func (s *Server) render(ctx context.Context, j *job) error {
	sel, err := experiments.Select(j.req.Experiment, j.req.Devices, j.req.Topology, j.plan != nil)
	if err != nil {
		return err
	}
	var scs []experiments.FaultScenario
	if j.plan != nil {
		scs = []experiments.FaultScenario{{Name: j.req.FaultName, Plan: j.plan}}
	}
	return s.root.With(j.req.Scale, j.req.Devices, scs).Render(ctx, j, sel)
}

// Experiments returns the servable experiment ids (presentation order),
// plus the "all" pseudo-id accepted by submit.
func Experiments() []string {
	return append(experiments.IDs(), "all")
}
