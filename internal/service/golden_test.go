// Black-box golden equivalence: the daemon's job results must be
// byte-identical to the abacus-repro CLI's committed golden files. The
// goldens live in cmd/abacus-repro/testdata and are read here rather
// than duplicated, so there is exactly one source of truth for the
// reproduction's bytes.
package service_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/service"
)

// goldenPath locates a committed CLI golden file.
func goldenPath(name string) string {
	return filepath.Join("..", "..", "cmd", "abacus-repro", "testdata", name)
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("golden %s: %v (regenerate with go test ./cmd/abacus-repro -update)", name, err)
	}
	return b
}

func newServer(t *testing.T, cfg service.Config) *service.Client {
	t.Helper()
	s := service.New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		hs.Close()
	})
	return &service.Client{BaseURL: hs.URL, HTTPClient: hs.Client(), Name: "golden"}
}

// firstDiff locates the first differing byte for a readable failure.
func firstDiff(a, b []byte) (line, col int) {
	line, col = 1, 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return line, col
		}
		if a[i] == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	return line, col
}

func expectBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	line, col := firstDiff(got, want)
	t.Errorf("%s: %d bytes, want %d; first difference at line %d col %d", name, len(got), len(want), line, col)
}

// TestGoldenEquivalencePerExperiment submits every experiment of the
// default full run as its own job and checks the concatenated results
// against the CLI's all_scale256 golden — the daemon invariant that one
// experiment's bytes are the same whether it renders alone or inside
// "all". The jobs share the daemon's single-flight cell cache, so the
// cost stays near one full render.
func TestGoldenEquivalencePerExperiment(t *testing.T) {
	c := newServer(t, service.Config{Workers: 1, SimWorkers: runtime.GOMAXPROCS(0), QueueDepth: 64})
	ctx := context.Background()

	sel, err := experiments.Select("all", 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range sel {
		st, err := c.Submit(ctx, service.JobRequest{Experiment: e.ID, Scale: 256})
		if err != nil {
			t.Fatalf("submit %s: %v", e.ID, err)
		}
		out, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("result %s: %v", e.ID, err)
		}
		got.Write(out)
	}
	expectBytes(t, "per-experiment concat vs all_scale256.golden",
		got.Bytes(), readGolden(t, "all_scale256.golden"))
}

// TestGoldenEquivalenceAll submits full-run jobs and checks them
// against both committed CLI goldens, polling one and streaming the
// other — result and stream endpoints must carry identical bytes.
func TestGoldenEquivalenceAll(t *testing.T) {
	c := newServer(t, service.Config{Workers: 2, SimWorkers: runtime.GOMAXPROCS(0), QueueDepth: 64})
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobRequest{Scale: 256})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	expectBytes(t, "all scale 256", out, readGolden(t, "all_scale256.golden"))

	// The same job streamed must carry the same bytes the poll returned.
	var streamed bytes.Buffer
	state, err := c.Stream(ctx, st.ID, &streamed)
	if err != nil {
		t.Fatal(err)
	}
	if state != service.StateDone {
		t.Fatalf("streamed job state %s, want done", state)
	}
	expectBytes(t, "stream vs result", streamed.Bytes(), out)

	st8, err := c.Submit(ctx, service.JobRequest{Scale: 256, Devices: 8})
	if err != nil {
		t.Fatal(err)
	}
	out8, err := c.Result(ctx, st8.ID)
	if err != nil {
		t.Fatal(err)
	}
	expectBytes(t, "all scale 256 devices 8", out8, readGolden(t, "all_scale256_devices8.golden"))
}

// TestGoldenEquivalenceFaults pins the fault-injection study: the
// cardloss preset served by the daemon must reproduce the CLI golden
// generated from the committed plan file (the preset and the file are
// the same plan, and the CLI labels file plans by basename).
func TestGoldenEquivalenceFaults(t *testing.T) {
	c := newServer(t, service.Config{Workers: 1, SimWorkers: runtime.GOMAXPROCS(0)})
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "faults", Scale: 64, Devices: 4, FaultPlan: "cardloss",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	expectBytes(t, "faults scale 64", out, readGolden(t, "fault_scale64.golden"))
}
