// Package flashabacus is the public API of the FlashAbacus reproduction: a
// self-governing flash-based accelerator for low-power systems (Zhang and
// Jung, EuroSys 2018), simulated end to end in Go.
//
// The accelerator couples eight lightweight VLIW processors with a 32 GB
// flash backbone. Kernels are offloaded as ELF-like kernel description
// tables and executed under one of four self-governing schedulers (static
// and dynamic inter-kernel, in-order and out-of-order intra-kernel) while
// Flashvisor virtualizes flash into the processors' address space and
// Storengine performs garbage collection and journaling off the critical
// path. A conventional accelerator-plus-NVMe-SSD baseline (SIMD) is
// modelled alongside for every comparison in the paper's evaluation.
//
// Quick start:
//
//	bundle, _ := flashabacus.Polybench("ATAX", 16)
//	result, _ := flashabacus.Run(context.Background(), flashabacus.IntraO3, bundle)
//	fmt.Println(result)
//
// Runs take a context.Context and abandon the simulation when it is
// cancelled, so paper-scale sweeps can be aborted cleanly. The full
// evaluation (every table and figure) regenerates through
// cmd/abacus-repro — concurrently across cores via its -jobs flag —
// and bench_test.go exposes one benchmark per experiment.
package flashabacus

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/kdt"
	"repro/internal/stats"
	"repro/internal/workload"
)

// System selects the accelerated-system configuration (§5 "Accelerators").
type System = core.System

// The five evaluated systems: the conventional baseline and the four
// FlashAbacus scheduling modes.
const (
	SIMD    = core.SIMD
	InterSt = core.InterSt
	InterDy = core.InterDy
	IntraIo = core.IntraIo
	IntraO3 = core.IntraO3
)

// Systems lists all five in the paper's presentation order.
var Systems = core.Systems

// Config is the device configuration; DefaultConfig returns the paper's
// Table 1 hardware with the chosen execution governor.
type Config = core.Config

// DefaultConfig returns the prototype configuration for a system.
func DefaultConfig(sys System) Config { return core.DefaultConfig(sys) }

// Device is an assembled accelerator. Populate inputs, offload apps, run.
type Device = core.Device

// New builds a device from a configuration.
func New(cfg Config) (*Device, error) { return core.New(cfg) }

// Result carries a run's measurements: throughput, latency distribution,
// utilization, energy decomposition, and optional time series.
type Result = stats.Result

// Bundle is a ready-to-run workload: applications to offload plus the
// input ranges to pre-populate.
type Bundle = workload.Bundle

// Table is a kernel description table — the executable object a host
// offloads (paper §4 "Kernel").
type Table = kdt.Table

// options applies the public scale knob to the default synthesis options —
// the one place the facade builds workload.Options.
func options(scale int64) workload.Options {
	o := workload.DefaultOptions()
	o.Scale = scale
	return o
}

// checkName rejects applications outside the constructor's own family, so
// Polybench cannot silently build a §5.6 workload or vice versa.
func checkName(family, name string, valid []string) error {
	for _, v := range valid {
		if v == name {
			return nil
		}
	}
	return fmt.Errorf("flashabacus: unknown %s application %q (valid: %s)",
		family, name, strings.Join(valid, ", "))
}

// Polybench builds the §5.1 homogeneous workload for one of the fourteen
// Table 2 applications (six kernel instances). scale divides the paper's
// input sizes; use 1 for paper scale, larger values for quick runs.
func Polybench(name string, scale int64) (*Bundle, error) {
	if err := checkName("PolyBench", name, workload.Names()); err != nil {
		return nil, err
	}
	return workload.Homogeneous(name, options(scale))
}

// Mix builds heterogeneous workload MXn (n in 1..14): six applications,
// four kernel instances each.
func Mix(n int, scale int64) (*Bundle, error) {
	return workload.Mix(n, options(scale))
}

// Bigdata builds the §5.6 workload for bfs, wc, nn, nw, or path.
func Bigdata(name string, scale int64) (*Bundle, error) {
	if err := checkName("bigdata", name, workload.BigdataNames()); err != nil {
		return nil, err
	}
	return workload.Homogeneous(name, options(scale))
}

// PolybenchNames returns the Table 2 application names.
func PolybenchNames() []string { return workload.Names() }

// BigdataNames returns the §5.6 application names.
func BigdataNames() []string { return workload.BigdataNames() }

// MixCount is the number of heterogeneous workloads.
const MixCount = workload.MixCount

// sharedImages is the process-wide device-image and probe cache behind the
// package-level entry points: Run, RunWithSeries, RunCluster, and
// RunTopology all fork copy-on-write snapshots from it, so repeated runs of
// the same synthesized bundle — across systems, card counts, policies, and
// topologies — skip the format/populate/offload lifecycle after the first.
// Hand-assembled bundles (empty workload key) bypass it. Results are
// byte-identical with or without the cache.
var sharedImages = cluster.NewImageCache()

// CacheStats is a point-in-time snapshot of the image cache's behavior:
// hit/miss/eviction counters for device images and work-steal probes.
type CacheStats = cluster.CacheStats

// ImageCacheStats returns the process-wide image cache's counters.
func ImageCacheStats() CacheStats { return sharedImages.Stats() }

// Run executes a workload bundle on the named system with the default
// configuration and returns its measurements. Cancelling ctx abandons
// the simulation and returns the context's error.
func Run(ctx context.Context, sys System, b *Bundle) (*Result, error) {
	return experiments.RunBundleCached(ctx, sys, b, false, sharedImages)
}

// RunWithSeries additionally collects the Fig. 15 time series.
func RunWithSeries(ctx context.Context, sys System, b *Bundle) (*Result, error) {
	return experiments.RunBundleCached(ctx, sys, b, true, sharedImages)
}

// Policy selects how RunCluster's host-level dispatcher shards a workload
// across cards.
type Policy = cluster.Policy

// The two dispatch policies, mirroring the paper's governor families:
// static round-robin of applications (the InterSt analogue) and dynamic
// work-stealing of kernel instances (the InterDy analogue).
const (
	RoundRobin = cluster.RoundRobin
	WorkSteal  = cluster.WorkSteal
)

// Topology is a declarative cluster shape: a tree of host-side PCIe
// switches — each with its own bandwidth and dispatch latency — fanning
// out to cards that may each carry a geometry skew against the base card.
type Topology = cluster.Topology

// Switch is one host-side PCIe switch of a Topology and the cards behind it.
type Switch = cluster.Switch

// CardSkew expresses one card's deviation from the base configuration:
// flash channel count, superblock size, LWP count, and scratchpad size
// (zero inherits the base value; the geometry knobs — channels, pages per
// block, scratchpad — must be powers of two).
type CardSkew = core.CardSkew

// TopologyPresetNames lists the built-in topology presets ("sym", "skew",
// "2sw-skew") the -topology experiment sweeps.
var TopologyPresetNames = cluster.PresetNames

// TopologyPreset builds one of the named example topologies over the given
// total card count (even, >= 2).
func TopologyPreset(name string, cards int) (Topology, error) {
	return cluster.Preset(name, cards)
}

// ClusterOption customizes a RunCluster dispatch beyond the card count and
// policy.
type ClusterOption func(*cluster.Options)

// WithTopology dispatches over an explicit heterogeneous topology instead
// of the implicit single-switch array of identical cards; the devices
// argument of RunCluster is then ignored (the topology owns the shape).
func WithTopology(t Topology) ClusterOption {
	return func(o *cluster.Options) { o.Topology = t }
}

// WithClusterWorkers bounds how many card simulations run concurrently in
// wall clock (simulated time is unaffected; 0 means one per core).
func WithClusterWorkers(n int) ClusterOption {
	return func(o *cluster.Options) { o.Workers = n }
}

// FaultPlan is a deterministic fault-injection schedule for a cluster
// run: card deaths, switch flap/throttle windows, and flash wear, all
// triggered by simulated event time and derived from the plan's seed.
// The same plan and workload produce byte-identical results at any
// wall-clock parallelism; a nil or zero plan changes nothing.
type FaultPlan = faults.Plan

// FaultRecord is the per-fault accounting a faulted run reports in
// Result.Faults: what was injected, when the dispatcher noticed, how
// long recovery took, and what the fault cost.
type FaultRecord = stats.FaultRecord

// ParseFaultPlan parses the textual fault-plan format (one directive
// per line; see internal/faults for the grammar and testdata/*.plan
// under cmd/abacus-repro for examples).
func ParseFaultPlan(text []byte) (*FaultPlan, error) { return faults.Parse(text) }

// LoadFaultPlan reads and parses a fault-plan file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return faults.Load(path) }

// FaultPresetNames lists the built-in fault scenarios ("cardloss",
// "flap", "wear") the -faults experiment sweeps.
var FaultPresetNames = faults.PresetNames

// FaultPreset returns a built-in fault plan by name.
func FaultPreset(name string) (*FaultPlan, error) { return faults.Preset(name) }

// WithFaultPlan injects the plan's faults into the cluster run. The
// dispatcher detects card deaths after the plan's heartbeat and
// re-dispatches lost work to survivors; switch windows stall or stretch
// transfers; flash wear adds deterministic read-retry latency. Each
// injected fault is accounted in Result.Faults.
func WithFaultPlan(p *FaultPlan) ClusterOption {
	return func(o *cluster.Options) { o.Faults = p }
}

// RunCluster shards one workload bundle across devices simulated FlashAbacus
// cards behind a shared host PCIe switch and returns the aggregated cluster
// measurements (summed throughput bytes, merged latencies, energy summed
// across cards). devices <= 1 runs the plain single-device path, identical
// to Run. Options extend the dispatch: WithTopology selects a multi-switch
// and/or geometry-skewed card tree (per-switch utilization then appears in
// Result.SwitchUtils); WithFaultPlan injects deterministic card, switch,
// and flash faults (per-fault accounting then appears in Result.Faults).
// Cancelling ctx abandons every in-flight card simulation and returns the
// context's error.
func RunCluster(ctx context.Context, sys System, devices int, policy Policy, b *Bundle, opts ...ClusterOption) (*Result, error) {
	o := cluster.Options{Policy: policy, Images: sharedImages}
	for _, f := range opts {
		f(&o)
	}
	if devices < 1 {
		devices = 1
	}
	cfg := core.DefaultConfig(sys)
	cfg.Devices = devices
	return cluster.Run(ctx, cfg, b, o)
}

// RunTopology dispatches one workload bundle over an explicit cluster
// topology: RunCluster with WithTopology, named for discoverability.
func RunTopology(ctx context.Context, sys System, topo Topology, policy Policy, b *Bundle) (*Result, error) {
	return experiments.RunTopology(ctx, sys, topo, policy, b, sharedImages)
}
