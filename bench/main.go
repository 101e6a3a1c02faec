// Command bench is the repository benchmark. It runs one workload for a
// time budget, checks that the program's outputs are correct, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"wall_s": {"value": 2.61, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// Workloads: paper, gc-churn, serve-durable, serve-mixed (see README.md for
// why each exists). --trace 0 reports the end-to-end metrics. --trace 1
// repeats the same work with spans recorded around every layer call,
// alternating traced and untraced passes, runs the layer probes after the
// timed window, reports the per-layer metrics, and writes
// <trace-dir>/<workload>.trace.json (Chrome trace-event JSON) and
// <trace-dir>/<workload>.layers.json.
//
// The exit code is 0 when every check passed, 1 when a check failed or the
// run could not complete, and 2 when most passes were invalid as
// measurements (the serve-durable load generator could not keep its
// schedule).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sizes are the workloads' problem sizes. The benchmark runs fullSize;
// bench_test.go shrinks them to smoke-test every workload in seconds.
type sizes struct {
	PaperScale   int64 // experiments Suite scale (1 = paper scale)
	PaperDevices int   // cluster sweep cap, abacus-repro -devices

	ChurnDevices int // devices per gc-churn pass
	ChurnBlocks  int // flash blocks per die row
	ChurnPages   int // pages per block
	ChurnWriters int // concurrent writer kernels
	ChurnRounds  int // read/compute/write rounds per writer

	OpenJobs   int // serve-durable open-loop jobs per pass
	ClosedJobs int // serve-durable closed-loop batch per pass
	MixedJobs  int // serve-mixed closed-loop batch per pass

	ProbeReps        int // repetitions per layer probe
	CalibrationLoads int // calibration loads per goroutine (see calibrate)
}

var fullSize = sizes{
	PaperScale: 1, PaperDevices: 8,
	ChurnDevices: 8, ChurnBlocks: 16, ChurnPages: 128, ChurnWriters: 6, ChurnRounds: 8,
	OpenJobs: 1000, ClosedJobs: 3000, MixedJobs: 600,
	ProbeReps: 15, CalibrationLoads: 8,
}

// setupReps is how many times every pass repeats its set-up, so setup_s
// is a median even within one pass; the pass continues from the last one.
const setupReps = 3

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	budget   time.Duration // how long the passes may run
	traced   bool
	traceDir string
	root     string // repository root
	tmp      string // per-invocation scratch under root/.bench_build
	size     sizes
}

// passResult is one pass of a workload: a fresh child process (paper,
// gc-churn) or a fresh abacusd (serve-*), doing the workload's fixed unit
// of work once.
type passResult struct {
	Wall      float64              // host seconds of the pass's unit of work
	Vals      map[string]float64   // per-pass values; the run reports their median
	Lists     map[string][]float64 // samples pooled across passes for percentiles
	Spans     []span               `json:",omitempty"`
	Attempted int
	Failed    int
	// Digest identifies the pass's simulated output (render digest,
	// simulated counters); every pass of a run must agree.
	Digest string
	// Outputs maps each output (the paper render, a served request) to
	// the digest of its bytes.
	Outputs map[string]output `json:",omitempty"`
	// Invalid, when set, says why the pass cannot count as a measurement;
	// the run drops it and measures another.
	Invalid string `json:",omitempty"`
	Traced  bool   `json:"-"`
}

// output is the digest one or more operations produced.
type output struct {
	Digest string
	Jobs   int // operations that produced it
}

func newPassResult() *passResult {
	return &passResult{Vals: map[string]float64{}, Lists: map[string][]float64{}}
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// prepare, when set, runs once before the passes and is not measured.
	prepare func(ctx context.Context, o *options) error
	// pass runs the workload's unit of work once.
	pass func(ctx context.Context, o *options, i int, traced bool) (*passResult, error)
	// child, for a workload whose pass is spawnPass, runs the pass inside
	// the child process.
	child func(ctx context.Context, sp childSpec) (*passResult, error)
	// check runs after the timed window and returns how many operations
	// produced wrong output.
	check func(ctx context.Context, o *options, ps []*passResult) (int, error)
	// summarize, when set, adds the values pooled across passes
	// (percentiles) to vals, which already holds the median of every
	// per-pass value.
	summarize func(ps []*passResult, vals map[string]float64)
	// churnGeometry makes the layer probes use the gc-churn flash
	// geometry instead of the default one.
	churnGeometry bool
}

var workloads = map[string]*workloadDef{}

func register(w *workloadDef) { workloads[w.name] = w }

// errInvalid marks a run in which most passes were invalid (see
// passResult.Invalid).
var errInvalid = errors.New("invalid run")

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	name := flag.String("workload", "", "workload: paper, gc-churn, serve-durable or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "time budget for the measured passes")
	trace := flag.Int("trace", 0, "1 records spans, runs the layer probes and reports per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where --trace 1 writes its files, relative to the repository root")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := benchMain(ctx, os.Stdout, *name, *seed, *seconds, *trace == 1, *traceDir, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// benchMain runs one invocation and prints its report to w. It returns
// the process exit code.
func benchMain(ctx context.Context, w io.Writer, name string, seed int64, seconds float64, traced bool, traceDir string, size sizes) (int, error) {
	wl := workloads[name]
	if wl == nil {
		return 1, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	o := &options{workload: name, seed: seed, budget: time.Duration(seconds * float64(time.Second)),
		traced: traced, traceDir: filepath.Join(root, traceDir), root: root, size: size}
	if filepath.IsAbs(traceDir) {
		o.traceDir = traceDir
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return 1, err
	}
	if o.tmp, err = os.MkdirTemp(base, name+"-"); err != nil {
		return 1, err
	}
	defer os.RemoveAll(o.tmp)

	res, err := runWorkload(ctx, o, wl)
	if err != nil {
		if errors.Is(err, errInvalid) {
			return 2, err
		}
		return 1, err
	}
	fmt.Fprintln(w, envLine())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(b))
	if !res.Correct {
		return 1, fmt.Errorf("%s: %d of %d operations failed their checks", name, res.Failed, res.Attempted)
	}
	return 0, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runWorkload runs passes until the budget is spent, checks the outputs,
// and assembles the reported metrics.
func runWorkload(ctx context.Context, o *options, wl *workloadDef) (*result, error) {
	if wl.prepare != nil {
		if err := wl.prepare(ctx, o); err != nil {
			return nil, err
		}
	}
	// A traced run alternates traced and untraced passes so the tracing
	// overhead is measured on the same work.
	minPasses := 1
	if o.traced {
		minPasses = 2
	}
	var ps []*passResult
	invalid := 0
	calib := []float64{calibrate(o.size.CalibrationLoads)}
	start := time.Now()
	for i := 0; ; i++ {
		if len(ps) >= minPasses {
			spent := time.Since(start)
			if spent+spent/time.Duration(i) > o.budget {
				break
			}
		}
		if invalid > len(ps)+2 {
			break
		}
		traced := o.traced && len(ps)%2 == 0
		p, err := wl.pass(ctx, o, i, traced)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", wl.name, i+1, err)
		}
		calib = append(calib, calibrate(o.size.CalibrationLoads))
		if p.Invalid != "" {
			invalid++
			fmt.Fprintf(os.Stderr, "bench: %s pass %d dropped: %s\n", wl.name, i+1, p.Invalid)
			continue
		}
		p.Traced = traced
		ps = append(ps, p)
	}
	if invalid > len(ps) || len(ps) < minPasses {
		return nil, fmt.Errorf("%w: %d of %d passes could not count as measurements", errInvalid, invalid, invalid+len(ps))
	}

	res := &result{Metrics: map[string]metric{}}
	for _, p := range ps {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if p.Digest != ps[0].Digest {
			res.Failed++ // a deterministic simulation changed its output
		}
	}
	wrong, err := wl.check(ctx, o, ps)
	if err != nil {
		return nil, err
	}
	res.Failed += wrong
	res.Correct = res.Failed == 0

	vals := medians(ps)
	if wl.summarize != nil {
		wl.summarize(ps, vals)
	}
	speed := float64(o.size.CalibrationLoads) * calibrationRefPerLoad / median(calib)
	vals["calibration_ms"] = median(calib) * 1000
	if !o.traced {
		for _, d := range endToEnd {
			v := vals[d.Name]
			switch {
			case !d.HostTime:
			case d.Better == "higher":
				v /= speed
			default:
				v *= speed
			}
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		return res, nil
	}

	// Probes run after the timed window, so they are not tracing overhead.
	// The journal probe appends records of the workload's result size; a
	// device run has no result bytes, so gc-churn appends a page.
	resultBytes := int(vals["result_bytes"])
	if resultBytes == 0 {
		resultBytes = 4096
	}
	probes, err := runProbes(ctx, o, wl.churnGeometry, resultBytes)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		vals[k] = v
	}
	var on, off []float64
	for _, p := range ps {
		if p.Traced {
			on = append(on, p.Wall)
		} else {
			off = append(off, p.Wall)
		}
	}
	vals["trace_overhead_pct"] = (median(on)/median(off) - 1) * 100
	vals["invalid_passes"] = float64(invalid)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	if err := writeTraceFiles(o, ps, res); err != nil {
		return nil, err
	}
	return res, nil
}

// writeTraceFiles writes the Chrome trace and the per-layer report.
func writeTraceFiles(o *options, ps []*passResult, res *result) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	if err := writeChromeTrace(filepath.Join(o.traceDir, o.workload+".trace.json"), ps); err != nil {
		return err
	}
	type layerMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Moves string  `json:"moves"`
	}
	layers := map[string]layerMetric{}
	for _, d := range perLayer {
		layers[d.Name] = layerMetric{Value: res.Metrics[d.Name].Value, Unit: d.Unit, Moves: d.Moves}
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "seed": o.seed, "passes": len(ps), "env": envInfo(),
		"correct": res.Correct, "metrics": layers,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.traceDir, o.workload+".layers.json"), append(b, '\n'), 0o644)
}

// findRoot returns the repository root: the nearest directory, from the
// working directory up, that holds the abacusd command.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "abacusd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (cmd/abacusd) above the working directory")
		}
		dir = parent
	}
}

// envInfo records what the numbers were measured on.
func envInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu}
}

func envLine() string {
	e := envInfo()
	return fmt.Sprintf("env nproc=%v gomaxprocs=%v go=%v cpu=%q", e["nproc"], e["gomaxprocs"], e["go"], e["cpu"])
}
