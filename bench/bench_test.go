package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
)

// smokeSize shrinks every workload so the whole file runs in seconds.
var smokeSize = sizes{
	PaperScale: 256, PaperDevices: 2,
	ChurnDevices: 2, ChurnBlocks: 16, ChurnPages: 32, ChurnWriters: 4, ChurnRounds: 2,
	OpenJobs: 60, ClosedJobs: 60, MixedJobs: 24,
	ProbeReps: 3, CalibrationLoads: 1,
}

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself to run a pass in a child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// runSmoke runs one workload at smoke size and returns its JSON report.
func runSmoke(t *testing.T, name string, traced bool, traceDir string) result {
	t.Helper()
	var out bytes.Buffer
	code, err := benchMain(context.Background(), &out, name, 1, 0, traced, traceDir, smokeSize)
	if err != nil || code != 0 {
		t.Fatalf("%s (traced %v): exit %d: %v\n%s", name, traced, code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON report: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestWorkloadsSmoke runs every workload untraced and traced: every
// metric BENCHMARK.json names is printed with its unit, the output checks
// pass, and the traced run writes its trace and layers files.
func TestWorkloadsSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, w := range f.Workloads {
		res := runSmoke(t, w.Name, false, dir)
		for _, m := range f.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.Name, m.Name, got, m.Unit)
			}
		}
		res = runSmoke(t, w.Name, true, dir)
		for _, m := range f.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, file := range []string{w.Name + ".trace.json", w.Name + ".layers.json"} {
			b, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil || !json.Valid(b) {
				t.Errorf("%s: %s missing or not JSON: %v", w.Name, file, err)
			}
		}
	}
}

// TestSeedDeterminism checks that a seed reproduces the same inputs and
// simulated counters and that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	cfg := churnConfig(smokeSize)
	logical := int64(cfg.Flash.TotalGroups()) * cfg.Flash.GroupSize() / 2
	tables := func(seed int64) any {
		return churnTables(seed, 0, logical, cfg.Flash.GroupSize(), 6, 8)
	}
	streams := map[string]func(seed int64) any{
		"gc-churn tables": tables,
		"serve-durable":   func(seed int64) any { return durableStream(seed, 300, 1) },
		"serve-mixed":     func(seed int64) any { return mixedStream(seed, 300) },
	}
	for name, gen := range streams {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
	if n := len(distinctSuiteKeys(mixedStream(1, fullSize.MixedJobs))); n <= 8 {
		t.Errorf("serve-mixed stream spans %d suite keys, want more than abacusd's 8", n)
	}

	ctx := context.Background()
	pass := func(workload string, seed int64) *passResult {
		p, err := workloads[workload].child(ctx, childSpec{Workload: workload, Seed: seed, Size: smokeSize})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := pass("gc-churn", 1), pass("gc-churn", 1), pass("gc-churn", 2)
	if a.Digest != b.Digest {
		t.Errorf("gc-churn seed 1 counters differ: %s vs %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("gc-churn seeds 1 and 2 gave the same counters %s", a.Digest)
	}
	// The paper render is the same bytes whatever order the seed
	// simulates the cells in.
	if p1, p2 := pass("paper", 1), pass("paper", 2); p1.Digest != p2.Digest {
		t.Errorf("paper render depends on the seed: %s vs %s", p1.Digest, p2.Digest)
	}
}

func distinctSuiteKeys(reqs []service.JobRequest) map[string]bool {
	keys := map[string]bool{}
	for _, r := range reqs {
		keys[fmt.Sprintf("%d/%d/%s", r.Scale, r.Devices, r.FaultPlan)] = true
	}
	return keys
}
