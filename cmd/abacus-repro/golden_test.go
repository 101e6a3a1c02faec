package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The golden files under testdata/ pin the exact bytes `abacus-repro all`
// prints at a small scale, replacing the manual "compare against a
// pre-change binary" ritual: any change that moves a reported number now
// fails in CI with a line-level diff. After an INTENTIONAL output change,
// regenerate with
//
//	go test ./cmd/abacus-repro -run TestGolden -update
//
// and commit the rewritten files alongside the change that explains them.
var update = flag.Bool("update", false, "rewrite the golden files from current output")

// goldenCases pins both dispatch-layer shapes: the single-device
// evaluation (the -devices 1 default, which must never move unless the
// device model itself changes) and the 8-card cluster sweep (which pins
// the homogeneous single-switch topology byte for byte).
var goldenCases = []struct {
	name    string
	file    string
	devices int
}{
	{"all", "all_scale256.golden", 1},
	{"all-devices8", "all_scale256_devices8.golden", 8},
}

func TestGoldenOutput(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			rc := runConfig{scale: 256, exp: "all", jobs: runtime.GOMAXPROCS(0), devices: tc.devices}
			if err := run(context.Background(), &buf, rc); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output drifted from %s:\n%s\nIf the change is intentional, regenerate with: go test ./cmd/abacus-repro -run TestGolden -update",
					path, firstDiff(want, buf.Bytes()))
			}
		})
	}
}

// firstDiff renders the first differing line with context, so a golden
// failure names the table that moved instead of dumping 30 KB.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(wl), len(gl))
}

// The golden capture must itself be independent of -jobs: a fully
// sequential render produces the same bytes the parallel one does.
func TestGoldenJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full renders")
	}
	var seq, par bytes.Buffer
	if err := run(context.Background(), &seq, runConfig{scale: 256, exp: "all", jobs: 1, devices: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &par, runConfig{scale: 256, exp: "all", jobs: runtime.GOMAXPROCS(0), devices: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("output depends on -jobs:\n%s", firstDiff(seq.Bytes(), par.Bytes()))
	}
}

// TestGoldenFig15PaperScale pins Fig 15 at paper scale, the one render
// whose series span hundreds of seconds of simulated time (every other
// golden runs at -scale 64 or 256, where the series are short). It keeps
// only the sha256 of the render, in testdata/fig15_scale1.sha256.
func TestGoldenFig15PaperScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runConfig{scale: 1, exp: "fig15", jobs: runtime.GOMAXPROCS(0), devices: 1}); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	path := filepath.Join("testdata", "fig15_scale1.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("fig15 -scale 1 render sha256 %s, want %s", got, strings.TrimSpace(string(want)))
	}
}

// TestGoldenFaults pins the fault-injection study byte for byte: the
// committed cardloss plan run across 4 cards must print exactly the
// committed golden at every -jobs count. Same plan + same seed →
// byte-identical degraded output, which is the whole point of
// deterministic fault injection.
func TestGoldenFaults(t *testing.T) {
	rcFor := func(jobs int) runConfig {
		return runConfig{scale: 64, exp: "faults", jobs: jobs, devices: 4,
			faults: filepath.Join("testdata", "cardloss.plan")}
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, rcFor(runtime.GOMAXPROCS(0))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fault_scale64.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("faulted output drifted from %s:\n%s\nIf the change is intentional, regenerate with: go test ./cmd/abacus-repro -run TestGolden -update",
			path, firstDiff(want, buf.Bytes()))
	}
	// The faulted render is -jobs invariant like everything else.
	var seq bytes.Buffer
	if err := run(context.Background(), &seq, rcFor(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), want) {
		t.Fatalf("faulted output depends on -jobs:\n%s", firstDiff(want, seq.Bytes()))
	}
}

// The topology sweep renders deterministically at any jobs count too; it
// is not in the golden 'all' files (it is opt-in) but must not flap.
func TestTopologyRenderDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(context.Background(), &a, runConfig{scale: 256, exp: "topology", jobs: 1, devices: 1, topology: true}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &b, runConfig{scale: 256, exp: "topology", jobs: runtime.GOMAXPROCS(0), devices: 1, topology: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("topology output depends on -jobs:\n%s", firstDiff(a.Bytes(), b.Bytes()))
	}
	for _, wantStr := range []string{"Topology scaling", "per-switch utilization"} {
		if !strings.Contains(a.String(), wantStr) {
			t.Errorf("topology render lacks %q", wantStr)
		}
	}
}
