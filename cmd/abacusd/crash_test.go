// Black-box crash-recovery harness: a real abacusd process, SIGKILLed
// mid-load by its own chaos plan, restarted against the same journal.
// Every job the dead daemon accepted must reach exactly one terminal
// state in the next life, with result bytes identical to a fresh render
// of the same request.
//
// The child process is this test binary re-executed with
// ABACUSD_CRASH_CHILD=1, which makes TestMain hand control to main() —
// so the harness exercises the exact flag wiring the shipped binary
// runs, not a lookalike.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	flashabacus "repro"
)

func TestMain(m *testing.M) {
	if os.Getenv("ABACUSD_CRASH_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// freeAddr reserves a loopback port and releases it for the child. The
// tiny close-to-bind race is acceptable in a test on loopback.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startChild launches abacusd (this binary, re-executed) on addr.
func startChild(t *testing.T, addr string, extra ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	args := append([]string{"-addr", addr, "-workers", "1"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ABACUSD_CRASH_CHILD=1")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, &logs
}

// waitReady polls the daemon until it serves requests.
func waitReady(t *testing.T, c *flashabacus.ServiceClient, logs *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Experiments(context.Background()); err == nil {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never came up; logs:\n%s", logs.String())
}

// slowJob holds life 1's single worker (its render takes about 150 ms
// on 2 vCPUs), far longer than the submits that follow it take, so no
// job finishes before the kill and every journal append up to it is an
// accept.
var slowJob = flashabacus.JobRequest{Experiment: "fig10a", Scale: 4, Client: "crash"}

func TestCrashRecoveryExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const killAfter = 5
	journalDir := t.TempDir()
	ctx := context.Background()

	// Life 1: chaos kills the process with SIGKILL right after the 5th
	// journal append and tears the final record — the worst crash the
	// journal format claims to survive. The slow job's accept is append 1
	// and the t1 accepts behind it, queued on the busy worker, are
	// appends 2 to 5: the kill lands on the 4th t1 accept, durable but
	// never acknowledged, and all five jobs are journaled but unfinished.
	addr1 := freeAddr(t)
	child1, logs1 := startChild(t, addr1,
		"-journal", journalDir, "-chaos", fmt.Sprintf("kill-after=%d,torn-tail,seed=1", killAfter))
	c1 := flashabacus.NewServiceClient("http://"+addr1, "crash")
	waitReady(t, c1, logs1)

	slow, err := c1.Submit(ctx, slowJob)
	if err != nil {
		t.Fatalf("slow submit: %v; logs:\n%s", err, logs1.String())
	}
	accepted := []string{slow.ID}
	for i := 0; i < 8; i++ {
		st, err := c1.Submit(ctx, flashabacus.JobRequest{Experiment: "t1", Client: "crash"})
		if err != nil {
			break // the kill landed
		}
		accepted = append(accepted, st.ID)
	}
	err = child1.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child 1 exited cleanly (%v) — chaos kill never fired; logs:\n%s", err, logs1.String())
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child 1 died of %v, want SIGKILL; logs:\n%s", err, logs1.String())
	}
	if len(accepted) != killAfter-1 {
		t.Fatalf("%d jobs acknowledged before the kill, want %d: %v; logs:\n%s",
			len(accepted), killAfter-1, accepted, logs1.String())
	}

	// Life 2: same journal, no chaos. Every journaled job re-enqueues
	// and must finish with the bytes of a fresh render of its request.
	addr2 := freeAddr(t)
	child2, logs2 := startChild(t, addr2, "-journal", journalDir)
	c2 := flashabacus.NewServiceClient("http://"+addr2, "crash")
	waitReady(t, c2, logs2)

	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("abacusd_jobs_recovered_total %d\n", killAfter); !strings.Contains(m, want) {
		t.Errorf("life 2 metrics lack %q:\n%s", strings.TrimSpace(want), grepLines(m, "abacusd_jobs_recovered_total"))
	}
	// The jobs the journal holds: those the client saw accepted, and the
	// one whose accept became durable just as the kill landed, before
	// its response reached the client.
	jobs, err := c2.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != killAfter {
		t.Errorf("life 2 lists %d jobs, want the %d journaled accepts", len(jobs), killAfter)
	}
	listed := map[string]bool{}
	for _, st := range jobs {
		listed[st.ID] = true
	}
	for _, id := range accepted {
		if !listed[id] {
			t.Errorf("accepted job %s is missing after recovery", id)
		}
	}
	want := map[flashabacus.JobRequest][]byte{}
	for _, st := range jobs {
		id := st.ID
		req := flashabacus.JobRequest{Experiment: st.Experiment, Scale: st.Scale, Client: "crash"}
		got, err := c2.Result(ctx, id) // blocks until terminal
		if err != nil {
			t.Errorf("journaled job %s did not reach done after recovery: %v", id, err)
			continue
		}
		if want[req] == nil {
			ref, err := c2.Submit(ctx, req)
			if err != nil {
				t.Fatalf("reference submit %+v: %v", req, err)
			}
			if want[req], err = c2.Result(ctx, ref.ID); err != nil {
				t.Fatalf("reference render %+v: %v", req, err)
			}
		}
		if !bytes.Equal(got, want[req]) {
			t.Errorf("job %s (%s, scale %d) recovered with %d bytes, want %d (a fresh render)",
				id, st.Experiment, st.Scale, len(got), len(want[req]))
		}
		// Terminal means settled: the state must not change on re-read.
		st, err := c2.Status(ctx, id)
		if err != nil || st.State != flashabacus.JobState("done") {
			t.Errorf("job %s state = %v, %v after result; want done", id, st.State, err)
		}
	}

	// Life 2 drains cleanly on SIGTERM — recovery did not wedge it.
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("child 2 did not drain cleanly: %v; logs:\n%s", err, logs2.String())
	}
}

// grepLines returns m's lines that contain substr.
func grepLines(m, substr string) string {
	var out []string
	for _, line := range strings.Split(m, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestCrashChildFlagError keeps the chaos flag surface honest: a bogus
// spec must fail fast with a diagnostic, not arm garbage.
func TestCrashChildFlagError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-chaos", "bogus")
	cmd.Env = append(os.Environ(), "ABACUSD_CRASH_CHILD=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("bogus chaos spec: err %v, want exit 1; output:\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("chaos")) {
		t.Fatalf("bogus chaos spec produced no diagnostic:\n%s", out)
	}
}
