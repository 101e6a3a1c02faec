package flashabacus

// Serving mode: the simulation-as-a-service surface. The heavy lifting
// lives in internal/service; this file re-exports the types and wires
// the daemon to the package's process-wide image cache, so served jobs
// and direct API calls (Run, RunCluster, ...) warm the same images.

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// httpDrainTimeout bounds how long Serve waits for open connections
// after the workers have drained.
const httpDrainTimeout = 5 * time.Second

// Connection limits of the daemon's HTTP server, so slow or abusive
// clients cannot pin connections open: a request's headers must arrive
// within readHeaderTimeout and the whole request within readTimeout, and
// an idle keep-alive connection closes after idleTimeout. The read limits
// stop counting once a request has been read, so they never cut a
// response; a write timeout would — ?wait=1 long-polls and result streams
// legitimately run for minutes — so there is none.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// ServiceConfig shapes a Service; the zero value is usable. See the
// field docs in internal/service.Config.
type ServiceConfig = service.Config

// JobRequest is a job submission: experiment id plus the CLI's knobs.
type JobRequest = service.JobRequest

// JobStatus is the wire representation of a submitted job.
type JobStatus = service.JobStatus

// JobState is a job's lifecycle state ("queued", "running", "done",
// "failed", "cancelled").
type JobState = service.JobState

// Service is the experiment-serving daemon: an http.Handler plus the
// worker pool behind it. Close it to drain.
type Service = service.Server

// ServiceClient is a typed client for a Service's HTTP API.
type ServiceClient = service.Client

// Journal is the durable job journal a Service can run on: an
// append-only, CRC-framed log of job lifecycle transitions that the
// daemon replays at boot to recover accepted work across a crash.
type Journal = journal.Journal

// OpenJournal opens (creating if needed) the job journal at dir. Pass
// it via ServiceConfig.Journal; the caller closes it after the service
// has drained.
func OpenJournal(dir string) (*Journal, error) {
	return journal.Open(dir, journal.Options{})
}

// ServiceChaos is a deterministic service-level fault plan for crash
// and degradation testing; see ParseServiceChaos for the spec grammar.
type ServiceChaos = service.Chaos

// ParseServiceChaos parses a chaos spec like
// "kill-after=8,torn-tail,seed=1" (see internal/service.ParseChaos).
func ParseServiceChaos(spec string) (*ServiceChaos, error) {
	return service.ParseChaos(spec)
}

// NewService builds a serving daemon. Unless cfg names its own image
// cache, the daemon shares the process-wide one, so a prior direct run
// benefits served jobs and vice versa.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Images == nil {
		cfg.Images = sharedImages
	}
	return service.New(cfg)
}

// Serve runs a daemon on addr until ctx is cancelled, then drains it:
// in-flight jobs are cancelled, workers exit, and open connections get
// a grace period to read their final bytes. The returned error is nil
// on a clean shutdown.
func Serve(ctx context.Context, addr string, cfg ServiceConfig) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, cfg)
}

// serve is Serve on an open listener, which it closes.
func serve(ctx context.Context, ln net.Listener, cfg ServiceConfig) error {
	svc := NewService(cfg)
	hs := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	// Stop the workers first so every job reaches a terminal state, then
	// shut the listener down gracefully so clients streaming results see
	// their trailers instead of a reset.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), httpDrainTimeout)
	defer cancel()
	return hs.Shutdown(shutdownCtx)
}

// NewServiceClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). name, when non-empty, is the client's
// fairness identity.
func NewServiceClient(baseURL, name string) *ServiceClient {
	return &ServiceClient{BaseURL: baseURL, Name: name}
}
