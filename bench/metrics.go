package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's definition; BENCHMARK.json repeats them (bench_test.go keeps
// the two in step) and README.md explains them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// HostTime marks an end-to-end metric that scales with the machine's
	// speed; it is reported at the reference speed (see calibrate).
	HostTime bool
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload a change at that layer should move ("-" where none should:
	// simulated counts, which a performance change must leave identical).
	Moves string
}

// endToEnd are the metrics a user of the simulator or of abacusd sees,
// measured with tracing off. Each is defined on every workload; see the
// per-workload table in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, HostTime: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, HostTime: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25, HostTime: true},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostTime: true},
}

// probeNames are the layer probes reported as a median plus an ".iqr"
// companion over the probe's repetitions.
var probeNames = []string{
	"sim.pipe_transfer_ns", "sim.resource_reserve_ns", "sim.engine_step_ns",
	"flashctrl.read_seq_ns_per_group", "flashctrl.program_ns_per_group",
	"flashctrl.migrate_ns_per_group", "flashctrl.erase_ns",
	"flashvisor.mapread_ns_per_group", "flashvisor.mapwrite_ns_per_group",
	"cluster.fork_us",
}

// perLayer are the metrics of a traced run (--trace 1). A workload that
// bypasses a layer reports 0 for it; the probes run on every workload.
var perLayer = func() []metricDef {
	const (
		paperWall  = "paper.wall_s"
		churnWall  = "gc-churn.wall_s"
		simWall    = "paper.wall_s gc-churn.wall_s"
		cacheMoves = "paper.wall_s serve-mixed.jobs_per_s"
		durable    = "serve-durable.p50_ms serve-durable.jobs_per_s"
	)
	defs := []metricDef{
		{Name: "experiments.prewarm_s", Unit: "s", Better: "lower", Moves: paperWall},
		{Name: "experiments.render_ms", Unit: "ms", Better: "lower", Moves: paperWall},
	}
	for _, k := range cellKinds {
		defs = append(defs, metricDef{Name: "experiments.cell_s." + k.name, Unit: "s", Better: "lower", Moves: paperWall})
	}
	defs = append(defs,
		metricDef{Name: "cluster.image_acquire_s", Unit: "s", Better: "lower", Moves: "paper.setup_s"},
		metricDef{Name: "cluster.image_hits", Unit: "count", Better: "higher", Moves: cacheMoves},
		metricDef{Name: "cluster.image_misses", Unit: "count", Better: "lower", Moves: cacheMoves},
		metricDef{Name: "cluster.probe_hits", Unit: "count", Better: "higher", Moves: cacheMoves},
		metricDef{Name: "cluster.probe_misses", Unit: "count", Better: "lower", Moves: cacheMoves},
		metricDef{Name: "core.groups_per_host_s", Unit: "1/s", Better: "higher", Moves: simWall},
		metricDef{Name: "core.new_ms", Unit: "ms", Better: "lower", Moves: "gc-churn.setup_s"},
		metricDef{Name: "core.populate_ms", Unit: "ms", Better: "lower", Moves: "gc-churn.setup_s"},
		metricDef{Name: "core.offload_ms", Unit: "ms", Better: "lower", Moves: "gc-churn.setup_s"},
		metricDef{Name: "core.run_s", Unit: "s", Better: "lower", Moves: churnWall},
		metricDef{Name: "core.sim_makespan_s", Unit: "s", Better: "lower", Moves: "-"},
		metricDef{Name: "flashvisor.read_groups", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "flashvisor.write_groups", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "flashvisor.fg_reclaims", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "flashvisor.migrated", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "flashvisor.lock_conflicts", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "storengine.bg_reclaims", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "storengine.journals", Unit: "count", Better: "lower", Moves: "-"},
	)
	probeMoves := map[string]string{
		"sim.pipe_transfer_ns":             simWall,
		"sim.resource_reserve_ns":          simWall,
		"sim.engine_step_ns":               simWall,
		"flashctrl.read_seq_ns_per_group":  paperWall,
		"flashctrl.program_ns_per_group":   churnWall,
		"flashctrl.migrate_ns_per_group":   churnWall,
		"flashctrl.erase_ns":               churnWall,
		"flashvisor.mapread_ns_per_group":  paperWall,
		"flashvisor.mapwrite_ns_per_group": churnWall,
		"cluster.fork_us":                  "serve-mixed.jobs_per_s",
	}
	for _, name := range probeNames {
		unit := "ns"
		if name == "cluster.fork_us" {
			unit = "us"
		}
		defs = append(defs,
			metricDef{Name: name, Unit: unit, Better: "lower", Moves: probeMoves[name]},
			metricDef{Name: name + ".iqr", Unit: unit, Better: "lower", Moves: "-"})
	}
	return append(defs,
		metricDef{Name: "service.submit_ms.p50", Unit: "ms", Better: "lower", Moves: durable},
		metricDef{Name: "service.submit_ms.p99", Unit: "ms", Better: "lower", Moves: durable},
		metricDef{Name: "service.fsyncs_per_job", Unit: "1/job", Better: "lower", Moves: durable},
		metricDef{Name: "service.appends_per_job", Unit: "1/job", Better: "lower", Moves: durable},
		metricDef{Name: "service.wait_ms.p50", Unit: "ms", Better: "lower", Moves: "serve-mixed.p50_ms"},
		metricDef{Name: "service.server_job_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed.p50_ms"},
		metricDef{Name: "service.p99_ms", Unit: "ms", Better: "lower", Moves: "-"},
		metricDef{Name: "service.shed", Unit: "count", Better: "lower", Moves: "-"},
		metricDef{Name: "service.gen_late_ms.p99", Unit: "ms", Better: "lower", Moves: "-"},
		metricDef{Name: "journal.append_us.p50", Unit: "us", Better: "lower", Moves: "serve-durable.p50_ms"},
		metricDef{Name: "journal.append_us.p99", Unit: "us", Better: "lower", Moves: "serve-durable.p50_ms"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Moves: "-"},
		metricDef{Name: "calibration_ms", Unit: "ms", Better: "lower", Moves: "-"},
		metricDef{Name: "invalid_passes", Unit: "count", Better: "lower", Moves: "-"},
	)
}()

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medians reduces the passes to one value per metric: the median across
// passes of every per-pass value, with the pass wall time as wall_s.
func medians(ps []*passResult) map[string]float64 {
	samples := map[string][]float64{}
	for _, p := range ps {
		samples["wall_s"] = append(samples["wall_s"], p.Wall)
		for k, v := range p.Vals {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }
