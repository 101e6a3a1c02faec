// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3.1 and §5). cmd/abacus-repro, bench_test.go, and
// EXPERIMENTS.md all regenerate their numbers through these functions, so
// every reported row has exactly one source.
//
// A Suite caches the (workload, system) device runs the figures share.
// The cache is bounded, safe for concurrent use, and single-flight: when
// figures race for the same cell, exactly one simulation runs and the rest
// wait for its result. Prewarm fills the cache through the internal/runner
// worker pool, which is how cmd/abacus-repro parallelizes a full
// reproduction across cores while keeping output byte-identical to a
// sequential run.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Kind selects which workload family a cached cell simulates.
type Kind int

const (
	// KindHomogeneous is a Table 2 PolyBench application (six instances).
	KindHomogeneous Kind = iota
	// KindHeterogeneous is one of the MX1..MX14 application mixes.
	KindHeterogeneous
	// KindBigdata is a §5.6 graph/bigdata application.
	KindBigdata
	// KindSensitivity is one (cores, serial%) cell of the Fig. 3b/3c sweep
	// on the conventional system.
	KindSensitivity
	// KindSeries is a mix run with time-series collection (Fig. 15).
	KindSeries
	// KindCluster is one (workload, devices, policy) cell of the cluster
	// scaling study: the bundle sharded across Devices cards by the
	// internal/cluster dispatcher.
	KindCluster
	// KindTopology is one (workload, topology preset, total cards, policy)
	// cell of the heterogeneous-topology sweep: the bundle dispatched over
	// a multi-switch and/or geometry-skewed card tree.
	KindTopology
	// KindFault is one (fault scenario, policy) cell of the fault-injection
	// study: the bundle dispatched across a cluster while a deterministic
	// fault plan kills cards, degrades switches, or wears the flash.
	KindFault
)

// Job names one cached device simulation: a workload cell (application,
// mix, sensitivity point, or series run) on one system. It is the Suite's
// cache key and the unit of work Prewarm hands to the runner pool — every
// device run of a full reproduction, including the Fig. 3 sweep and the
// Fig. 15 series, flows through this one type, so a single Prewarm saturates
// the worker pool with no serialized warm phases between experiment
// families.
type Job struct {
	Kind  Kind
	Name  string // application name (KindHomogeneous, KindBigdata, KindCluster)
	Mix   int    // mix number (KindHeterogeneous, KindSeries, KindCluster with Name == "")
	Sys   core.System
	Cores int // worker count (KindSensitivity)
	Pct   int // serial instruction percentage (KindSensitivity)

	Devices int            // card count (KindCluster, KindTopology, KindFault)
	Policy  cluster.Policy // dispatch policy (KindCluster, KindTopology, KindFault)
	Topo    string         // topology preset name (KindTopology)
	Fault   string         // fault scenario name (KindFault)
}

func (j Job) String() string {
	switch j.Kind {
	case KindHeterogeneous:
		return fmt.Sprintf("MX%d/%s", j.Mix, j.Sys)
	case KindSensitivity:
		return fmt.Sprintf("serial%d@%dc/%s", j.Pct, j.Cores, j.Sys)
	case KindSeries:
		return fmt.Sprintf("MX%d-series/%s", j.Mix, j.Sys)
	case KindCluster:
		return fmt.Sprintf("cluster-%s@%dx%s/%s", j.workloadName(), j.Devices, j.Policy, j.Sys)
	case KindTopology:
		return fmt.Sprintf("topo-%s-%s@%dx%s/%s", j.Topo, j.workloadName(), j.Devices, j.Policy, j.Sys)
	case KindFault:
		return fmt.Sprintf("fault-%s-%s@%dx%s/%s", j.Fault, j.workloadName(), j.Devices, j.Policy, j.Sys)
	default:
		return fmt.Sprintf("%s/%s", j.Name, j.Sys)
	}
}

// workloadName names the job's workload for rows and labels: the
// application name, or MXn when the job runs a mix.
func (j Job) workloadName() string {
	if j.Name != "" {
		return j.Name
	}
	return fmt.Sprintf("MX%d", j.Mix)
}

// bundle builds the job's workload at the suite's scale.
func (j Job) bundle(o workload.Options) (*workload.Bundle, error) {
	switch j.Kind {
	case KindHomogeneous, KindBigdata:
		return workload.Homogeneous(j.Name, o)
	case KindHeterogeneous, KindSeries:
		return workload.Mix(j.Mix, o)
	case KindCluster, KindTopology, KindFault:
		if j.Name != "" {
			return workload.Homogeneous(j.Name, o)
		}
		return workload.Mix(j.Mix, o)
	case KindSensitivity:
		b, _, err := workload.Sensitivity(j.Pct, j.Cores, o)
		return b, err
	}
	return nil, fmt.Errorf("experiments: unknown job kind %d", j.Kind)
}

// cellKey is everything that shapes a cell's bytes: the workload scale,
// the fault plan's canonical text for a KindFault job ("" for every other
// kind), and the job. MaxDevices only chooses which cells a render lists,
// never what one computes, so it stays out of the key.
type cellKey struct {
	scale int64
	plan  string
	job   Job
}

// maxCells bounds the cell cache: a full evaluation is at most ~256 cells
// of a few KB each, so it holds many (scale, fault plan) combinations.
const maxCells = 4096

// Suite runs and caches the evaluation's device runs at one scale. Scale
// divides the Table 2 input sizes: 1 reproduces paper-scale data volumes,
// larger values shrink runs for tests and benches.
//
// Methods may be called from many goroutines; each distinct cell is
// simulated once while it stays cached. Workers bounds how many
// simulations Prewarm and the Fig. 3 sweep run concurrently (0 means
// runtime.GOMAXPROCS(0)). Changing a knob never aliases a cached cell.
type Suite struct {
	Scale   int64
	Workers int
	// MaxDevices caps the cluster scaling sweep's device counts (0 means
	// the full ClusterDeviceCounts sweep). abacus-repro sets it from
	// -devices so the prewarmed cells match the rendered columns.
	MaxDevices int

	// mu guards faults: the fault-injection scenarios the "faults"
	// experiment runs, by name. Nil means DefaultFaultScenarios;
	// SetFaultScenarios replaces them (abacus-repro does when -faults
	// names a plan file).
	mu     sync.Mutex
	faults []scenario

	cells *runner.Cache[cellKey, *stats.Result] // shared by every view (With)

	// images shares formatted/populated/offloaded device snapshots and
	// work-steal probe runs across every cell of the suite: cells fork a
	// copy-on-write image of their (configuration class, bundle) instead
	// of rebuilding the device lifecycle, and cluster cells at different
	// card counts and policies reuse one probe simulation per (card
	// class, instance). Results are byte-identical to uncached runs.
	images *cluster.ImageCache
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(scale int64) *Suite {
	return NewSuiteWithImages(scale, nil)
}

// NewSuiteWithImages returns a suite at the given scale with a fresh cell
// cache, sharing a caller-owned image/probe cache instead of a private
// one, so its cells fork warm device images other suites built. A nil cache
// keeps the suite self-contained, exactly like NewSuite.
func NewSuiteWithImages(scale int64, images *cluster.ImageCache) *Suite {
	if scale < 1 {
		scale = 1
	}
	if images == nil {
		images = cluster.NewImageCache()
	}
	return &Suite{
		Scale:  scale,
		cells:  runner.NewCache[cellKey, *stats.Result](maxCells),
		images: images,
	}
}

// With returns a view of s at another scale, device cap, and fault
// scenario list (nil means DefaultFaultScenarios) that shares s's cell
// and image caches and Workers, so knob combinations reuse the cells
// they have in common.
func (s *Suite) With(scale int64, maxDevices int, scenarios []FaultScenario) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{
		Scale:      scale,
		Workers:    s.Workers,
		MaxDevices: maxDevices,
		faults:     fingerprint(scenarios),
		cells:      s.cells,
		images:     s.images,
	}
}

// ImageStats returns the suite's image/probe cache counters.
func (s *Suite) ImageStats() cluster.CacheStats { return s.images.Stats() }

// SetFaultScenarios replaces the suite's fault-injection scenarios (nil
// restores DefaultFaultScenarios). A fault cell's key carries its plan's
// canonical text, so a later Run under a new plan simulates that plan
// even when the scenario name is unchanged.
func (s *Suite) SetFaultScenarios(scs []FaultScenario) {
	fp := fingerprint(scs)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = fp
}

// scenario is a FaultScenario with its plan's canonical text, the
// fingerprint its cells are keyed by.
type scenario struct {
	FaultScenario
	fp string
}

// fingerprint pairs each scenario with its plan's canonical text (a nil
// plan runs as the zero plan). Nil in, nil out.
func fingerprint(scs []FaultScenario) []scenario {
	if scs == nil {
		return nil
	}
	out := make([]scenario, len(scs))
	for i, sc := range scs {
		p := sc.Plan
		if p == nil {
			p = &faults.Plan{}
		}
		out[i] = scenario{FaultScenario: sc, fp: p.String()}
	}
	return out
}

// defaultScenarios is DefaultFaultScenarios, fingerprinted once.
var defaultScenarios = sync.OnceValue(func() []scenario {
	return fingerprint(DefaultFaultScenarios())
})

// faultScenarios returns the active scenario list.
func (s *Suite) faultScenarios() []scenario {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults != nil {
		return s.faults
	}
	return defaultScenarios()
}

// scenario resolves a scenario name to its plan and fingerprint.
func (s *Suite) scenario(name string) (scenario, error) {
	for _, sc := range s.faultScenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("experiments: unknown fault scenario %q", name)
}

func (s *Suite) opts() workload.Options {
	o := workload.DefaultOptions()
	o.Scale = s.Scale
	return o
}

// RunBundle executes a workload bundle on one system configuration by
// walking a single cluster node through its lifecycle (build, populate,
// offload, run). Cancelling ctx abandons the simulation.
func RunBundle(ctx context.Context, sys core.System, b *workload.Bundle, series bool) (*stats.Result, error) {
	return RunBundleCached(ctx, sys, b, series, nil)
}

// RunBundleCached is RunBundle forking the cached device image for the
// (system class, bundle) pair instead of rebuilding the lifecycle; a nil
// cache rebuilds from scratch. Results are byte-identical either way.
func RunBundleCached(ctx context.Context, sys core.System, b *workload.Bundle, series bool, images *cluster.ImageCache) (*stats.Result, error) {
	cfg := core.DefaultConfig(sys)
	cfg.CollectSeries = series
	return cluster.RunSingleCached(ctx, cfg, b, images)
}

// RunTopology dispatches a workload bundle over an explicit cluster
// topology — a tree of switches fanning out to possibly-skewed cards —
// with the default configuration as the base card every skew derives from.
func RunTopology(ctx context.Context, sys core.System, topo cluster.Topology, policy cluster.Policy, b *workload.Bundle, images *cluster.ImageCache) (*stats.Result, error) {
	cfg := core.DefaultConfig(sys)
	return cluster.Run(ctx, cfg, b, cluster.Options{Policy: policy, Topology: topo, Images: images})
}

// Run returns job j's result, simulating it on first request. Concurrent
// requests for the same cell share one simulation. A run that fails only
// because its context was cancelled is evicted, so a later call with a
// live context retries instead of replaying the stale cancellation.
func (s *Suite) Run(ctx context.Context, j Job) (*stats.Result, error) {
	key := cellKey{scale: s.Scale, job: j}
	var plan *faults.Plan
	if j.Kind == KindFault {
		sc, err := s.scenario(j.Fault)
		if err != nil {
			return nil, err
		}
		key.plan, plan = sc.fp, sc.Plan
	}
	return s.cells.Await(ctx, key, func(ctx context.Context) (*stats.Result, error) {
		return s.simulate(ctx, j, plan)
	})
}

func (s *Suite) simulate(ctx context.Context, j Job, plan *faults.Plan) (*stats.Result, error) {
	if j.Kind == KindCluster && j.Devices <= 1 {
		// A one-card cluster is the plain single-device run: share the
		// equivalent homogeneous/heterogeneous cell instead of simulating
		// the same device twice under a second key.
		if j.Name != "" {
			return s.Run(ctx, Job{Kind: KindHomogeneous, Name: j.Name, Sys: j.Sys})
		}
		return s.Run(ctx, Job{Kind: KindHeterogeneous, Mix: j.Mix, Sys: j.Sys})
	}
	b, err := j.bundle(s.opts())
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case KindSensitivity:
		// The sweep overrides the worker count; everything else matches
		// the conventional baseline. Sensitivity bundles populate nothing,
		// so the cell is a plain image fork + run (the image is shared by
		// every core count of the same serial ratio — the worker count is
		// a run-time knob outside the image's build key).
		cfg := core.DefaultConfig(core.SIMD)
		cfg.Workers = j.Cores
		var d *core.Device
		img, err := s.images.Offloaded(ctx, cfg, b)
		switch {
		case err == nil:
			if d, err = img.Fork(cfg); err != nil {
				return nil, err
			}
		case errors.Is(err, core.ErrUnforkable):
			// Cannot happen for synthesized sensitivity bundles (they
			// populate nothing), but mirror the cluster-layer fallback.
			if d, err = core.New(cfg); err != nil {
				return nil, err
			}
			for _, app := range b.Apps {
				if err := d.OffloadApp(app.Name, app.Tables); err != nil {
					return nil, err
				}
			}
		default:
			return nil, err
		}
		return d.Run(ctx)
	case KindSeries:
		return RunBundleCached(ctx, j.Sys, b, true, s.images)
	case KindCluster:
		// simulate already runs inside a Prewarm worker slot, so the
		// nested card/probe simulations stay sequential: total concurrent
		// device runs never exceed the suite's Workers bound (and -jobs 1
		// stays fully sequential through cluster cells).
		cfg := core.DefaultConfig(j.Sys)
		cfg.Devices = j.Devices
		return cluster.Run(ctx, cfg, b, cluster.Options{Policy: j.Policy, Workers: 1, Images: s.images})
	case KindTopology:
		topo, err := cluster.Preset(j.Topo, j.Devices)
		if err != nil {
			return nil, err
		}
		// Workers: 1 for the same reason as the KindCluster case above.
		cfg := core.DefaultConfig(j.Sys)
		return cluster.Run(ctx, cfg, b, cluster.Options{Policy: j.Policy, Workers: 1, Topology: topo, Images: s.images})
	case KindFault:
		// Workers: 1 for the same reason as the KindCluster case above.
		cfg := core.DefaultConfig(j.Sys)
		cfg.Devices = j.Devices
		return cluster.Run(ctx, cfg, b, cluster.Options{Policy: j.Policy, Workers: 1, Images: s.images, Faults: plan})
	default:
		return RunBundleCached(ctx, j.Sys, b, false, s.images)
	}
}

// Prewarm fills the cache for every listed job through the runner pool,
// at most s.Workers simulations at a time. Jobs already cached (or
// duplicated in the list) cost nothing extra. A failing job does not stop
// the fill — the remaining cells still warm (and the failure stays cached
// for whoever reads that cell) — but cancelling ctx does. The
// lowest-indexed failure is returned.
func (s *Suite) Prewarm(ctx context.Context, jobs []Job) error {
	p := runner.New(s.Workers)
	return p.EachAll(ctx, len(jobs), func(ctx context.Context, i int) error {
		_, err := s.Run(ctx, jobs[i])
		return err
	})
}

// Homogeneous returns (running and caching) the result for one Table 2
// application on one system.
func (s *Suite) Homogeneous(ctx context.Context, name string, sys core.System) (*stats.Result, error) {
	return s.Run(ctx, Job{Kind: KindHomogeneous, Name: name, Sys: sys})
}

// Heterogeneous returns the cached result for mix MXn on one system.
func (s *Suite) Heterogeneous(ctx context.Context, n int, sys core.System) (*stats.Result, error) {
	return s.Run(ctx, Job{Kind: KindHeterogeneous, Mix: n, Sys: sys})
}

// Bigdata returns the cached result for a §5.6 application on one system.
func (s *Suite) Bigdata(ctx context.Context, name string, sys core.System) (*stats.Result, error) {
	return s.Run(ctx, Job{Kind: KindBigdata, Name: name, Sys: sys})
}

// CachedExperimentIDs lists the abacus-repro experiment ids whose device
// runs flow through the Suite cache — the ones Cells enumerates jobs for.
var CachedExperimentIDs = []string{
	"fig3b", "fig3c", "fig3d", "fig3e", "fig10a", "fig10b", "fig11a", "fig11b",
	"fig12", "fig13a", "fig13b", "fig14a", "fig14b", "fig15", "fig16a", "fig16b",
	"cluster", "topology", "faults",
}

// Cluster scaling study shape: representative workloads (a data-intensive
// and a compute-intensive PolyBench application plus one heterogeneous
// mix), the device-count sweep, and the system the cards run.
var (
	ClusterSys          = core.IntraO3
	ClusterApps         = []string{"ATAX", "3MM"}
	ClusterMixes        = []int{1}
	ClusterDeviceCounts = []int{1, 2, 4, 8}
)

// clusterBases returns the workload template jobs of the scaling study, in
// row order.
func clusterBases() []Job {
	var out []Job
	for _, name := range ClusterApps {
		out = append(out, Job{Kind: KindCluster, Name: name, Sys: ClusterSys})
	}
	for _, n := range ClusterMixes {
		out = append(out, Job{Kind: KindCluster, Mix: n, Sys: ClusterSys})
	}
	return out
}

// clusterCells enumerates the scaling cells for the given device counts.
// A one-card cluster is policy-independent (it is the plain single-device
// run), so devices=1 contributes one shared cell per workload instead of
// one per policy.
func clusterCells(counts []int) []Job {
	var out []Job
	for _, base := range clusterBases() {
		for _, d := range counts {
			if d <= 1 {
				j := base
				j.Devices = 1
				out = append(out, j)
				continue
			}
			for _, p := range cluster.Policies {
				j := base
				j.Devices, j.Policy = d, p
				out = append(out, j)
			}
		}
	}
	return out
}

// Heterogeneous-topology sweep shape: every built-in preset (symmetric
// two-switch, per-card skew, two-switch + skew) over a doubling total card
// count, on the representative heterogeneous mix. Both dispatch policies
// run on every shape, so the sweep shows the work-stealing governor
// exploiting capability differences the static rotation cannot.
var (
	TopologyPresets   = cluster.PresetNames
	TopologyCards     = []int{2, 4, 8}
	TopologyMix       = 1
	TopologyUtilCards = 8 // card count the per-switch utilization table reads
)

// topologyCells enumerates the heterogeneous-topology sweep in
// (preset, cards, policy) order — the order the render's rows consume.
func topologyCells() []Job {
	var out []Job
	for _, preset := range TopologyPresets {
		for _, n := range TopologyCards {
			for _, p := range cluster.Policies {
				out = append(out, Job{
					Kind: KindTopology, Mix: TopologyMix, Sys: ClusterSys,
					Topo: preset, Devices: n, Policy: p,
				})
			}
		}
	}
	return out
}

// FaultScenario names one deterministic fault plan the fault-injection
// study dispatches a cluster run under. The name is the table row label;
// the plan's canonical text keys the scenario's cells.
type FaultScenario struct {
	Name string
	Plan *faults.Plan
}

// DefaultFaultScenarios returns the built-in study: one scenario per
// faults preset (card death, switch flap+throttle, flash wear).
func DefaultFaultScenarios() []FaultScenario {
	out := make([]FaultScenario, 0, len(faults.PresetNames))
	for _, name := range faults.PresetNames {
		p, err := faults.Preset(name)
		if err != nil { // unreachable: PresetNames enumerates Preset
			panic(err)
		}
		out = append(out, FaultScenario{Name: name, Plan: p})
	}
	return out
}

// Fault-injection study shape: every scenario runs the representative
// heterogeneous mix across FaultDevices cards under both dispatch
// policies, so the study contrasts work-steal re-dispatch against
// round-robin re-sharding under identical injected faults.
var (
	FaultDevices = 4
	FaultMix     = 1
)

// faultDevices is the study's card count under the suite's MaxDevices
// cap, floored at 2: card-death and switch scenarios need a survivor,
// so a -devices 1 run shrinks the study to two cards rather than
// degenerating to a single-card cluster no plan can validate against.
func (s *Suite) faultDevices() int {
	d := FaultDevices
	if s.MaxDevices > 0 && s.MaxDevices < d {
		d = s.MaxDevices
		if d < 2 {
			d = 2
		}
	}
	return d
}

// faultCells enumerates the study in (scenario, policy) order — the
// order the render's rows consume.
func faultCells(scs []scenario, devices int) []Job {
	var out []Job
	for _, sc := range scs {
		for _, p := range cluster.Policies {
			out = append(out, Job{
				Kind: KindFault, Mix: FaultMix, Sys: ClusterSys,
				Fault: sc.Name, Devices: devices, Policy: p,
			})
		}
	}
	return out
}

// deviceCounts is the suite's capped sweep: ClusterDeviceCounts up to
// MaxDevices (0 means uncapped), never empty.
func (s *Suite) deviceCounts() []int {
	if s.MaxDevices <= 0 {
		return ClusterDeviceCounts
	}
	var out []int
	for _, d := range ClusterDeviceCounts {
		if d <= s.MaxDevices {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// sensitivityCells enumerates the Fig. 3 sweep in (cores, ratio) order —
// the order the sweep's points render in.
func sensitivityCells() []Job {
	var out []Job
	for cores := 1; cores <= 8; cores++ {
		for _, pct := range SerialRatios {
			out = append(out, Job{Kind: KindSensitivity, Cores: cores, Pct: pct, Sys: core.SIMD})
		}
	}
	return out
}

// seriesSystems are the Fig. 15 trace systems, in render order.
var seriesSystems = []core.System{core.SIMD, core.IntraO3}

func seriesCells() []Job {
	var out []Job
	for _, sys := range seriesSystems {
		out = append(out, Job{Kind: KindSeries, Mix: 1, Sys: sys})
	}
	return out
}

// Cells enumerates the cached device runs one experiment needs, in the
// order the experiment consumes them. Experiments that do not use the
// cache (t1, t2, mixes) return nil.
func Cells(id string) []Job {
	homogAll := func(names []string, kind Kind) []Job {
		var out []Job
		for _, name := range names {
			for _, sys := range core.Systems {
				out = append(out, Job{Kind: kind, Name: name, Sys: sys})
			}
		}
		return out
	}
	hetAll := func() []Job {
		var out []Job
		for n := 1; n <= workload.MixCount; n++ {
			for _, sys := range core.Systems {
				out = append(out, Job{Kind: KindHeterogeneous, Mix: n, Sys: sys})
			}
		}
		return out
	}
	switch id {
	case "fig3b", "fig3c":
		return sensitivityCells()
	case "fig15":
		return seriesCells()
	case "fig3d", "fig3e":
		var out []Job
		for _, name := range Fig3Apps {
			out = append(out, Job{Kind: KindHomogeneous, Name: name, Sys: core.SIMD})
		}
		return out
	case "fig10a", "fig11a", "fig13a", "fig14a":
		return homogAll(workload.Names(), KindHomogeneous)
	case "fig10b", "fig11b", "fig13b", "fig14b":
		return hetAll()
	case "fig12":
		var out []Job
		for _, sys := range core.Systems {
			out = append(out, Job{Kind: KindHomogeneous, Name: "ATAX", Sys: sys})
		}
		for _, sys := range core.Systems {
			out = append(out, Job{Kind: KindHeterogeneous, Mix: 1, Sys: sys})
		}
		return out
	case "fig16a", "fig16b":
		return homogAll(workload.BigdataNames(), KindBigdata)
	case "cluster":
		return clusterCells(ClusterDeviceCounts)
	case "topology":
		return topologyCells()
	case "faults":
		return faultCells(defaultScenarios(), FaultDevices)
	}
	return nil
}

// CellsFor enumerates the union of cells the listed experiments need,
// deduplicated, preserving first-appearance order — a deterministic job
// list for Prewarm.
func CellsFor(ids []string) []Job {
	return cellsFor(ids, Cells)
}

// CellsFor is the suite-aware variant of the free function: cluster and
// fault cells honour the suite's MaxDevices cap and fault scenarios, so
// a prewarm warms exactly the cells the suite's renders will read.
func (s *Suite) CellsFor(ids []string) []Job {
	return cellsFor(ids, func(id string) []Job {
		switch id {
		case "cluster":
			return clusterCells(s.deviceCounts())
		case "faults":
			return faultCells(s.faultScenarios(), s.faultDevices())
		}
		return Cells(id)
	})
}

func cellsFor(ids []string, cells func(string) []Job) []Job {
	seen := map[Job]bool{}
	var out []Job
	for _, id := range ids {
		for _, j := range cells(id) {
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// Table1 renders the hardware specification (Table 1).
func Table1() *report.Table {
	cfg := core.DefaultConfig(core.IntraO3)
	t := &report.Table{Title: "Table 1: hardware specification",
		Header: []string{"component", "specification", "frequency", "power", "est. B/W"}}
	t.Add("LWP", fmt.Sprintf("%d processors", cfg.LWPs), "1GHz",
		fmt.Sprintf("%.1fW/core", cfg.Rates.LWPActive), "16GB/s")
	t.Add("L1/L2 cache", "64KB/512KB", "500MHz", "-", "16GB/s")
	t.Add("Scratchpad", "4MB", "500MHz", "-", "16GB/s")
	t.Add("Memory", "DDR3L, 1GB", "800MHz", fmt.Sprintf("%.1fW", cfg.Rates.DDR3L), "6.4GB/s")
	t.Add("SSD", fmt.Sprintf("%d dies, %s", cfg.Flash.Channels*cfg.Flash.DieRows(),
		units.FormatBytes(cfg.Flash.Capacity())), "200MHz",
		fmt.Sprintf("%.0fW", cfg.Rates.Backbone), "3.2GB/s")
	t.Add("PCIe", "v2.0, 2 lanes", "5GHz", fmt.Sprintf("%.2fW", cfg.Rates.PCIe), "1GB/s")
	t.Add("Tier-1 crossbar", "256 lanes", "500MHz", "-", "16GB/s")
	t.Add("Tier-2 crossbar", "128 lanes", "333MHz", "-", "5.2GB/s")
	return t
}

// Table2 renders the workload characteristics (Table 2).
func Table2() *report.Table {
	t := &report.Table{Title: "Table 2: workload characteristics",
		Header: []string{"name", "description", "MBLKs", "serial", "input(MB)", "LD/ST%", "B/KI", "class"}}
	for _, s := range workload.Specs() {
		class := "compute-intensive"
		if s.DataIntensive() {
			class = "data-intensive"
		}
		t.Add(s.Name, s.Desc, s.MBlocks, s.SerialMB, s.InputMB,
			fmt.Sprintf("%.2f", s.LdStPct), fmt.Sprintf("%.2f", s.BKI), class)
	}
	return t
}

// TableMixes renders the reconstructed MX membership.
func TableMixes() *report.Table {
	t := &report.Table{Title: "Heterogeneous workloads (reconstructed mix table)",
		Header: []string{"mix", "applications"}}
	for n := 1; n <= workload.MixCount; n++ {
		members, _ := workload.MixMembers(n)
		t.Add(fmt.Sprintf("MX%d", n), fmt.Sprint(members))
	}
	return t
}

// SerialRatios are the Fig. 3 sweep points.
var SerialRatios = []int{0, 10, 20, 30, 40, 50}

// Fig3Point is one sensitivity measurement.
type Fig3Point struct {
	Cores      int
	SerialPct  int
	Throughput float64 // GB/s
	Util       float64 // [0,1]
}

// Fig3Sensitivity sweeps cores 1–8 × serial ratio 0–50% on the
// conventional system (Fig. 3b and 3c share these runs). The 48 cells are
// ordinary suite jobs, so they run through a pool of at most workers
// goroutines (0 means GOMAXPROCS); the returned points are ordered by
// (cores, ratio) regardless of completion order.
func Fig3Sensitivity(ctx context.Context, scale int64, workers int) ([]Fig3Point, error) {
	s := NewSuite(scale)
	s.Workers = workers
	return s.Fig3Points(ctx)
}

// Fig3Points returns the sensitivity sweep. Its device runs are ordinary
// cells, prewarmed through the pool and then assembled, so Fig. 3b and 3c
// (and racing callers) share one set of simulations, and a Prewarm that
// included fig3b's cells makes this pure assembly.
func (s *Suite) Fig3Points(ctx context.Context) ([]Fig3Point, error) {
	jobs := sensitivityCells()
	if err := s.Prewarm(ctx, jobs); err != nil {
		return nil, err
	}
	nominal, err := workload.SensitivityNominal(s.opts())
	if err != nil {
		return nil, err
	}
	points := make([]Fig3Point, 0, len(jobs))
	for _, j := range jobs {
		res, err := s.Run(ctx, j)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig3Point{
			Cores:      j.Cores,
			SerialPct:  j.Pct,
			Throughput: float64(nominal) / units.Seconds(res.Makespan) / 1e9,
			Util:       res.WorkerUtil,
		})
	}
	return points, nil
}

// Fig3bTable renders throughput vs cores.
func Fig3bTable(points []Fig3Point) *report.Table {
	return fig3Table(points, "Fig 3b: workload throughput (GB/s)", func(p Fig3Point) float64 {
		return p.Throughput
	})
}

// Fig3cTable renders utilization vs cores.
func Fig3cTable(points []Fig3Point) *report.Table {
	return fig3Table(points, "Fig 3c: core utilization (%)", func(p Fig3Point) float64 {
		return p.Util * 100
	})
}

func fig3Table(points []Fig3Point, title string, val func(Fig3Point) float64) *report.Table {
	t := &report.Table{Title: title, Header: []string{"cores"}}
	for _, r := range SerialRatios {
		t.Header = append(t.Header, fmt.Sprintf("serial %d%%", r))
	}
	for cores := 1; cores <= 8; cores++ {
		row := []interface{}{cores}
		for _, r := range SerialRatios {
			for _, p := range points {
				if p.Cores == cores && p.SerialPct == r {
					row = append(row, val(p))
				}
			}
		}
		t.Add(row...)
	}
	return t
}

// Fig3Apps are the applications the Fig. 3d/3e breakdowns plot.
var Fig3Apps = []string{"ATAX", "BICG", "2DCON", "MVT", "SYRK", "3MM", "GESUM", "ADI", "COVAR", "FDTD"}

// Fig3d renders the SIMD-system execution-time decomposition.
func (s *Suite) Fig3d(ctx context.Context) (*report.Table, error) {
	t := &report.Table{Title: "Fig 3d: execution time breakdown (SIMD system)",
		Header: []string{"app", "accelerator", "SSD", "host storage stack"}}
	for _, name := range Fig3Apps {
		r, err := s.Homogeneous(ctx, name, core.SIMD)
		if err != nil {
			return nil, err
		}
		a, ssd, stack := r.BreakdownFracs()
		t.Add(name, a, ssd, stack)
	}
	return t, nil
}

// Fig3e renders the SIMD-system energy decomposition.
func (s *Suite) Fig3e(ctx context.Context) (*report.Table, error) {
	t := &report.Table{Title: "Fig 3e: energy breakdown (SIMD system)",
		Header: []string{"app", "accelerator", "SSD+stack (storage)", "data movement"}}
	for _, name := range Fig3Apps {
		r, err := s.Homogeneous(ctx, name, core.SIMD)
		if err != nil {
			return nil, err
		}
		t.Add(name, r.Energy.Frac(power.Compute), r.Energy.Frac(power.Storage), r.Energy.Frac(power.DataMove))
	}
	return t, nil
}

// Fig10a renders homogeneous throughput for all five systems.
func (s *Suite) Fig10a(ctx context.Context) (*report.Table, error) {
	t := &report.Table{Title: "Fig 10a: homogeneous throughput (MB/s)",
		Header: append([]string{"app"}, systemNames()...)}
	for _, name := range workload.Names() {
		row := []interface{}{name}
		for _, sys := range core.Systems {
			r, err := s.Homogeneous(ctx, name, sys)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", r.ThroughputMBps()))
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig10b renders heterogeneous throughput for all five systems.
func (s *Suite) Fig10b(ctx context.Context) (*report.Table, error) {
	t := &report.Table{Title: "Fig 10b: heterogeneous throughput (MB/s)",
		Header: append([]string{"mix"}, systemNames()...)}
	for n := 1; n <= workload.MixCount; n++ {
		row := []interface{}{fmt.Sprintf("MX%d", n)}
		for _, sys := range core.Systems {
			r, err := s.Heterogeneous(ctx, n, sys)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", r.ThroughputMBps()))
		}
		t.Add(row...)
	}
	return t, nil
}

// latTable renders Fig. 11's min/avg/max latencies normalized to SIMD.
func (s *Suite) latTable(title string, names []string,
	get func(string, core.System) (*stats.Result, error)) (*report.Table, error) {
	t := &report.Table{Title: title,
		Header: []string{"workload", "system", "min", "avg", "max"}}
	for _, name := range names {
		base, err := get(name, core.SIMD)
		if err != nil {
			return nil, err
		}
		bmin, bavg, bmax := base.LatencyStats()
		for _, sys := range core.Systems {
			r, err := get(name, sys)
			if err != nil {
				return nil, err
			}
			mn, av, mx := r.LatencyStats()
			t.Add(name, sys.String(), norm(mn, bmin), norm(av, bavg), norm(mx, bmax))
		}
	}
	return t, nil
}

func norm(v, base units.Duration) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(v)/float64(base))
}

// mixNames returns "MX1".."MX14" for the heterogeneous figure rows.
func mixNames() []string {
	names := make([]string, workload.MixCount)
	for i := range names {
		names[i] = fmt.Sprintf("MX%d", i+1)
	}
	return names
}

// getHomog adapts Homogeneous to the by-name getters the shared table
// renderers take; getHet does the same for the MXn rows.
func (s *Suite) getHomog(ctx context.Context) func(string, core.System) (*stats.Result, error) {
	return func(name string, sys core.System) (*stats.Result, error) {
		return s.Homogeneous(ctx, name, sys)
	}
}

func (s *Suite) getHet(ctx context.Context) func(string, core.System) (*stats.Result, error) {
	return func(name string, sys core.System) (*stats.Result, error) {
		var n int
		fmt.Sscanf(name, "MX%d", &n)
		return s.Heterogeneous(ctx, n, sys)
	}
}

// Fig11a renders homogeneous latency normalized to SIMD.
func (s *Suite) Fig11a(ctx context.Context) (*report.Table, error) {
	return s.latTable("Fig 11a: homogeneous latency (normalized to SIMD)", workload.Names(), s.getHomog(ctx))
}

// Fig11b renders heterogeneous latency normalized to SIMD.
func (s *Suite) Fig11b(ctx context.Context) (*report.Table, error) {
	return s.latTable("Fig 11b: heterogeneous latency (normalized to SIMD)", mixNames(), s.getHet(ctx))
}

// Fig12 renders the kernel-completion CDFs for ATAX and MX1.
func (s *Suite) Fig12(ctx context.Context) (*report.Table, error) {
	t := &report.Table{Title: "Fig 12: kernel completion CDF (ATAX and MX1)",
		Header: []string{"workload", "system", "completions (time ms : count)"}}
	for _, sys := range core.Systems {
		r, err := s.Homogeneous(ctx, "ATAX", sys)
		if err != nil {
			return nil, err
		}
		t.Add("ATAX", sys.String(), cdfString(r))
	}
	for _, sys := range core.Systems {
		r, err := s.Heterogeneous(ctx, 1, sys)
		if err != nil {
			return nil, err
		}
		t.Add("MX1", sys.String(), cdfString(r))
	}
	return t, nil
}

func cdfString(r *stats.Result) string {
	out := ""
	for _, p := range r.CDF() {
		out += fmt.Sprintf("%.1f:%d ", float64(p.Time)/1e6, p.Completed)
	}
	return out
}

// energyTable renders Fig. 13's decomposition normalized to SIMD total.
func (s *Suite) energyTable(title string, names []string,
	get func(string, core.System) (*stats.Result, error)) (*report.Table, error) {
	t := &report.Table{Title: title,
		Header: []string{"workload", "system", "data movement", "computation", "storage access", "total"}}
	for _, name := range names {
		base, err := get(name, core.SIMD)
		if err != nil {
			return nil, err
		}
		bt := base.Energy.Total()
		for _, sys := range core.Systems {
			r, err := get(name, sys)
			if err != nil {
				return nil, err
			}
			e := r.Energy
			t.Add(name, sys.String(),
				e[power.DataMove]/bt, e[power.Compute]/bt, e[power.Storage]/bt, e.Total()/bt)
		}
	}
	return t, nil
}

// Fig13a renders homogeneous energy decomposition.
func (s *Suite) Fig13a(ctx context.Context) (*report.Table, error) {
	return s.energyTable("Fig 13a: homogeneous energy (normalized to SIMD)", workload.Names(), s.getHomog(ctx))
}

// Fig13b renders heterogeneous energy decomposition.
func (s *Suite) Fig13b(ctx context.Context) (*report.Table, error) {
	return s.energyTable("Fig 13b: heterogeneous energy (normalized to SIMD)", mixNames(), s.getHet(ctx))
}

// utilTable renders Fig. 14's processor utilizations.
func (s *Suite) utilTable(title string, names []string,
	get func(string, core.System) (*stats.Result, error)) (*report.Table, error) {
	t := &report.Table{Title: title, Header: append([]string{"workload"}, systemNames()...)}
	for _, name := range names {
		row := []interface{}{name}
		for _, sys := range core.Systems {
			r, err := get(name, sys)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", r.WorkerUtil*100))
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig14a renders homogeneous LWP utilization.
func (s *Suite) Fig14a(ctx context.Context) (*report.Table, error) {
	return s.utilTable("Fig 14a: homogeneous LWP utilization (%)", workload.Names(), s.getHomog(ctx))
}

// Fig14b renders heterogeneous LWP utilization.
func (s *Suite) Fig14b(ctx context.Context) (*report.Table, error) {
	return s.utilTable("Fig 14b: heterogeneous LWP utilization (%)", mixNames(), s.getHet(ctx))
}

// Fig15 runs MX1 with time-series collection on SIMD and IntraO3 and
// returns the FU-utilization and power traces. The two series runs are
// ordinary cells (KindSeries), single-flight cached like every other cell,
// so racing callers share one computation and a prewarmed suite renders
// this figure without simulating.
func (s *Suite) Fig15(ctx context.Context) (map[string]*stats.Result, error) {
	jobs := seriesCells()
	if err := s.Prewarm(ctx, jobs); err != nil {
		return nil, err
	}
	out := map[string]*stats.Result{}
	for _, j := range jobs {
		res, err := s.Run(ctx, j)
		if err != nil {
			return nil, err
		}
		out[j.Sys.String()] = res
	}
	return out, nil
}

// Fig16a renders graph/bigdata throughput.
func (s *Suite) Fig16a(ctx context.Context) (*report.Table, error) {
	t := &report.Table{Title: "Fig 16a: graph/bigdata throughput (MB/s)",
		Header: append([]string{"app"}, systemNames()...)}
	for _, name := range workload.BigdataNames() {
		row := []interface{}{name}
		for _, sys := range core.Systems {
			r, err := s.Bigdata(ctx, name, sys)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", r.ThroughputMBps()))
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig16b renders graph/bigdata energy decomposition normalized to SIMD.
func (s *Suite) Fig16b(ctx context.Context) (*report.Table, error) {
	return s.energyTable("Fig 16b: graph/bigdata energy (normalized to SIMD)",
		workload.BigdataNames(),
		func(name string, sys core.System) (*stats.Result, error) {
			return s.Bigdata(ctx, name, sys)
		})
}

// clusterPolicyName spells a dispatch policy for table rows.
func clusterPolicyName(p cluster.Policy) string {
	switch p {
	case cluster.RoundRobin:
		return "round-robin"
	case cluster.WorkSteal:
		return "work-steal"
	default:
		return p.String()
	}
}

// Cluster renders the scaling study: aggregate throughput and total energy
// versus device count for the representative workloads, one row per
// (workload, dispatch policy). The cells are ordinary suite jobs, so a
// prewarm that included the cluster experiment makes this pure assembly.
func (s *Suite) Cluster(ctx context.Context) (string, error) {
	counts := s.deviceCounts()
	hdr := []string{"workload", "policy"}
	for _, d := range counts {
		hdr = append(hdr, fmt.Sprintf("%d dev", d))
	}
	tput := &report.Table{
		Title:  fmt.Sprintf("Cluster scaling: aggregate throughput (MB/s, %s)", ClusterSys),
		Header: hdr,
	}
	energy := &report.Table{
		Title:  fmt.Sprintf("Cluster scaling: total energy (J, %s)", ClusterSys),
		Header: hdr,
	}
	for _, base := range clusterBases() {
		for _, p := range cluster.Policies {
			rowT := []interface{}{base.workloadName(), clusterPolicyName(p)}
			rowE := []interface{}{base.workloadName(), clusterPolicyName(p)}
			for _, d := range counts {
				j := base
				j.Devices = d
				if d > 1 {
					j.Policy = p
				}
				r, err := s.Run(ctx, j)
				if err != nil {
					return "", err
				}
				rowT = append(rowT, fmt.Sprintf("%.1f", r.ThroughputMBps()))
				rowE = append(rowE, fmt.Sprintf("%.2f", r.Energy.Total()))
			}
			tput.Add(rowT...)
			energy.Add(rowE...)
		}
	}
	return tput.String() + "\n" + energy.String() + "\n", nil
}

// Topology renders the heterogeneous-topology sweep: aggregate throughput
// versus total card count for every preset shape and policy, plus the
// per-switch utilization split at the widest shape — where a congested or
// under-provisioned switch shows up as a utilization gap against its
// sibling. The cells are ordinary suite jobs, so a prewarm that included
// the topology experiment makes this pure assembly.
func (s *Suite) Topology(ctx context.Context) (string, error) {
	hdr := []string{"topology", "policy"}
	for _, n := range TopologyCards {
		hdr = append(hdr, fmt.Sprintf("%d cards", n))
	}
	tput := &report.Table{
		Title:  fmt.Sprintf("Topology scaling: aggregate throughput (MB/s, MX%d on %s)", TopologyMix, ClusterSys),
		Header: hdr,
	}
	util := &report.Table{
		Title:  fmt.Sprintf("Topology per-switch utilization (%%, %d cards)", TopologyUtilCards),
		Header: []string{"topology", "policy", "switch", "cards", "util"},
	}
	for _, preset := range TopologyPresets {
		for _, p := range cluster.Policies {
			row := []interface{}{preset, clusterPolicyName(p)}
			for _, n := range TopologyCards {
				r, err := s.Run(ctx, Job{
					Kind: KindTopology, Mix: TopologyMix, Sys: ClusterSys,
					Topo: preset, Devices: n, Policy: p,
				})
				if err != nil {
					return "", err
				}
				row = append(row, fmt.Sprintf("%.1f", r.ThroughputMBps()))
				if n == TopologyUtilCards {
					for _, su := range r.SwitchUtils {
						util.Add(preset, clusterPolicyName(p), su.Switch, su.Cards,
							fmt.Sprintf("%.1f", su.Util*100))
					}
				}
			}
			tput.Add(row...)
		}
	}
	return tput.String() + "\n" + util.String() + "\n", nil
}

// Faults renders the fault-injection study: for every scenario and
// dispatch policy, the degraded cluster outcome (throughput, makespan,
// work lost and redone, recovery latency, injected flash retries),
// followed by the per-fault accounting records the dispatcher charged.
// The cells are ordinary suite jobs, so a prewarm that included the
// faults experiment makes this pure assembly.
func (s *Suite) Faults(ctx context.Context) (string, error) {
	devices := s.faultDevices()
	summary := &report.Table{
		Title: fmt.Sprintf("Fault injection: degraded-mode outcomes (MX%d @ %d cards, %s)",
			FaultMix, devices, ClusterSys),
		Header: []string{"scenario", "policy", "MB/s", "makespan", "lost", "redone", "recovery", "retries"},
	}
	detail := &report.Table{
		Title:  "Fault injection: per-fault accounting",
		Header: []string{"scenario", "policy", "fault", "target", "at", "detect", "recovery", "lost", "redone", "window MB/s"},
	}
	for _, sc := range s.faultScenarios() {
		for _, p := range cluster.Policies {
			r, err := s.Run(ctx, Job{
				Kind: KindFault, Mix: FaultMix, Sys: ClusterSys,
				Fault: sc.Name, Devices: devices, Policy: p,
			})
			if err != nil {
				return "", err
			}
			var lost, recov units.Duration
			var redone int
			for _, f := range r.Faults {
				lost += f.Lost
				redone += f.Redone
				if f.Recovery > recov {
					recov = f.Recovery
				}
			}
			summary.Add(sc.Name, clusterPolicyName(p),
				fmt.Sprintf("%.1f", r.ThroughputMBps()), units.FormatDuration(r.Makespan),
				units.FormatDuration(lost), redone, units.FormatDuration(recov), r.FlashRetries)
			for _, f := range r.Faults {
				win := "-"
				if f.DegradedTput > 0 {
					win = fmt.Sprintf("%.1f", f.DegradedTput)
				}
				detail.Add(sc.Name, clusterPolicyName(p), f.Kind, f.Target,
					units.FormatDuration(f.At), units.FormatDuration(f.Detect),
					units.FormatDuration(f.Recovery), units.FormatDuration(f.Lost),
					f.Redone, win)
			}
		}
	}
	return summary.String() + "\n" + detail.String() + "\n", nil
}

func systemNames() []string {
	out := make([]string, len(core.Systems))
	for i, sys := range core.Systems {
		out[i] = sys.String()
	}
	return out
}
