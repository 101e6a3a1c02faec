// Command abacusd serves the paper's experiments over HTTP/JSON: a
// simulation-as-a-service daemon in front of the same renderers the
// abacus-repro CLI uses, so a job's result bytes are exactly what the
// CLI prints for the same knobs.
//
// Usage:
//
//	abacusd [-addr :8080] [-workers N] [-sim-workers N] [-queue N]
//	        [-timeout D] [-max-timeout D] [-retain N] [-journal DIR]
//	        [-watchdog-grace D] [-chaos SPEC]
//
// workers bounds how many jobs execute concurrently; sim-workers bounds
// each job's internal device-simulation parallelism. queue bounds the
// admitted backlog across all clients — beyond it, submissions are shed
// with 429 — and dispatch is round-robin across clients, so one noisy
// client cannot starve the rest. timeout/-max-timeout bound job
// execution server-side. Device images and probe results are cached in
// memory for the life of the process, shared by every job.
//
// -journal makes job lifecycle durable: accepts and terminal states
// (with result bytes) land in an append-only CRC-framed journal under
// DIR, and a restarted daemon replays it — finished jobs stay queryable
// with their exact bytes, jobs that were accepted or running at crash
// time run again. -watchdog-grace bounds how long a
// render may ignore its cancelled context before the stuck-job
// watchdog abandons it. -chaos injects deterministic faults
// (kill-after=N, torn-tail, panic=EXPERIMENT, journal-fail-after=N,
// journal-slow=DUR, seed=N) for the crash-recovery harness.
//
// A SIGINT/SIGTERM drains cleanly: queued and running jobs finalize as
// cancelled, streaming clients see their trailers, then the listener
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	flashabacus "repro"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "max concurrently executing jobs")
	simWorkers := flag.Int("sim-workers", runtime.GOMAXPROCS(0), "max concurrent device simulations within one job")
	queue := flag.Int("queue", 64, "max admitted-but-not-running jobs before submissions shed with 429")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job execution deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "upper bound on client-requested job deadlines")
	retain := flag.Int("retain", 256, "finished jobs kept queryable")
	journalDir := flag.String("journal", "", "journal job lifecycle under this directory and replay it at boot")
	watchdogGrace := flag.Duration("watchdog-grace", 10*time.Second, "how long a render may ignore cancellation before the watchdog abandons it")
	chaosSpec := flag.String("chaos", "", "deterministic fault plan for crash testing, e.g. kill-after=8,torn-tail,seed=1")
	flag.Parse()

	cfg := flashabacus.ServiceConfig{
		Workers: *workers, SimWorkers: *simWorkers, QueueDepth: *queue,
		DefaultTimeout: *timeout, MaxTimeout: *maxTimeout, RetainJobs: *retain,
		WatchdogGrace: *watchdogGrace,
	}
	var jl *flashabacus.Journal
	if *journalDir != "" {
		var err error
		if jl, err = flashabacus.OpenJournal(*journalDir); err != nil {
			fmt.Fprintln(os.Stderr, "abacusd:", err)
			os.Exit(1)
		}
		cfg.Journal = jl
	}
	if *chaosSpec != "" {
		chaos, err := flashabacus.ParseServiceChaos(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abacusd:", err)
			os.Exit(1)
		}
		cfg.Chaos = chaos
		log.Printf("abacusd: chaos plan armed: %s", *chaosSpec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("abacusd: listening on %s (workers %d, sim-workers %d, queue %d)",
		*addr, *workers, *simWorkers, *queue)
	if err := flashabacus.Serve(ctx, *addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "abacusd:", err)
		os.Exit(1)
	}
	if jl != nil {
		jl.Close()
	}
	log.Printf("abacusd: drained")
}
