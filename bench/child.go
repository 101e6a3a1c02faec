package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// childEnv carries a childSpec to a re-executed copy of this binary, which
// then runs exactly one simulator pass and exits: every pass starts with
// cold process-wide caches and gets its own peak RSS.
const childEnv = "ABACUS_BENCH_CHILD"

type childSpec struct {
	Workload string
	Seed     int64
	Traced   bool
	Size     sizes
}

// childMain runs the pass named by spec and writes its result as JSON to
// standard output. It returns the process exit code.
func childMain(spec string) int {
	var sp childSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	wl := workloads[sp.Workload]
	if wl == nil || wl.child == nil {
		fmt.Fprintf(os.Stderr, "bench child: no child pass for %q\n", sp.Workload)
		return 1
	}
	p, err := wl.child(context.Background(), sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// spawnPass runs one pass of o's workload in a fresh child process, which
// runs the workload's child function, and adds the child's peak resident
// set to the result.
func spawnPass(ctx context.Context, o *options, _ int, traced bool) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(childSpec{Workload: o.workload, Seed: o.seed, Traced: traced, Size: o.size})
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	p := newPassResult()
	if err := json.Unmarshal(out.Bytes(), p); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	p.Vals["peak_rss_mb"] = peakRSSMB(cmd.ProcessState)
	return p, nil
}

// peakRSSMB reads an exited process's peak resident set in MiB.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}
