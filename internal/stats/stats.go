// Package stats aggregates run metrics into the quantities the paper's
// evaluation reports: throughput, latency min/avg/max, completion CDFs,
// processor utilization, execution-time breakdowns, and time series.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/flashvisor"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// Result is the outcome of one device run.
type Result struct {
	System   string
	Workload string

	Makespan units.Duration
	Bytes    int64 // input data processed (read by kernels)

	// KernelLatencies holds each kernel's issue-to-completion latency in
	// arrival order; CompletionTimes holds absolute completion stamps for
	// the Fig. 12 CDFs.
	KernelLatencies []units.Duration
	CompletionTimes []sim.Time

	// WorkerUtil is average worker execution time over the makespan
	// (Fig. 14's metric), in [0,1].
	WorkerUtil float64

	Energy      power.Breakdown
	ByComponent []power.Entry

	// Execution-time decomposition for Fig. 3d: accelerator compute time,
	// SSD device time, and host storage-stack CPU time.
	AccelTime units.Duration
	SSDTime   units.Duration
	StackTime units.Duration

	// Time series for Fig. 15 (nil unless collection was enabled): busy
	// functional units and watts, binned at each series' Bin.
	FU, Power *power.Series

	// SwitchUtils breaks worker utilization down by host-side PCIe switch
	// (nil unless the run used a labeled multi-switch topology), in the
	// topology's switch order.
	SwitchUtils []SwitchUtil

	Visor         flashvisor.Stats
	BGReclaims    int64
	Journals      int64
	LockConflicts int64
	LockWaited    units.Duration
	DrainTime     units.Duration // device-side background drain past makespan

	// FlashRetries counts read-retry cycles the fault plan's wear model
	// injected; RetryTime is the extra sensing time they cost. Zero on
	// healthy runs.
	FlashRetries int64
	RetryTime    units.Duration

	// Faults holds one accounting record per injected fault (nil on
	// healthy runs), in plan order for window/wear records and part
	// order for card deaths.
	Faults []FaultRecord
}

// FaultRecord is the per-fault accounting a faulted cluster run reports:
// what was injected, when the dispatcher noticed, how long recovery
// took, and what the fault cost.
type FaultRecord struct {
	Kind   string // "card-death", "switch-throttle", "switch-flap", "flash-wear"
	Target string // card id or switch name

	// At is the injection instant; Until closes a window fault's span.
	At, Until units.Duration
	// Detect is the host's failure-detection latency for a card death.
	Detect units.Duration
	// Recovery is injection-to-recovered: for a card death, from the
	// death to the last re-dispatched instance completing on a survivor.
	Recovery units.Duration
	// Lost is simulated work time thrown away (progress on a dead card;
	// for flash wear, the total injected retry latency).
	Lost units.Duration
	// Redone counts work items re-dispatched after the fault (for flash
	// wear, the injected retry cycles).
	Redone int
	// DegradedTput is the cluster throughput (MB/s) over a window
	// fault's [At, Until) span, measured by completions inside it.
	DegradedTput float64
}

// ThroughputMBps returns processed bytes over the makespan in MB/s
// (decimal megabytes, as the paper's axes use).
func (r *Result) ThroughputMBps() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Bytes) / units.Seconds(r.Makespan) / 1e6
}

// LatencyStats returns min, average, and max kernel latency.
func (r *Result) LatencyStats() (min, avg, max units.Duration) {
	if len(r.KernelLatencies) == 0 {
		return 0, 0, 0
	}
	min, max = r.KernelLatencies[0], r.KernelLatencies[0]
	var sum units.Duration
	for _, l := range r.KernelLatencies {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	return min, sum / units.Duration(len(r.KernelLatencies)), max
}

// CDF returns the kernel-completion distribution as (time, count) steps,
// the shape Fig. 12 plots.
func (r *Result) CDF() []CDFPoint {
	ts := append([]sim.Time(nil), r.CompletionTimes...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := make([]CDFPoint, len(ts))
	for i, t := range ts {
		out[i] = CDFPoint{Time: t, Completed: i + 1}
	}
	return out
}

// CDFPoint is one step of a completion CDF.
type CDFPoint struct {
	Time      sim.Time
	Completed int
}

// BreakdownFracs normalizes the Fig. 3d time decomposition. The three
// shares sum to 1 when any time was recorded.
func (r *Result) BreakdownFracs() (accel, ssd, stack float64) {
	total := float64(r.AccelTime + r.SSDTime + r.StackTime)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(r.AccelTime) / total, float64(r.SSDTime) / total, float64(r.StackTime) / total
}

// Part is one node's contribution to a cluster aggregate: the node-local
// result plus the host-level time offset at which the node's run began
// (its dispatch completion on the shared host link). Switch optionally
// names the PCIe switch the node sits behind in a multi-switch topology;
// parts sharing a label aggregate into one per-switch utilization row. A
// part with a nil Res is an idle card: it contributes nothing but still
// counts toward its switch's card count (and so dilutes its utilization),
// exactly like idle cards dilute the cluster-wide WorkerUtil.
type Part struct {
	Res    *Result
	Offset units.Duration
	Switch string
	// Faults carries the fault records charged to this part — a dead
	// card's part may have a nil Res (its work was lost) yet still
	// report its death here.
	Faults []FaultRecord
}

// SwitchUtil is the per-switch slice of a cluster aggregate: how many cards
// sit behind one switch and their average worker utilization over the
// cluster makespan. A congested or under-provisioned switch shows up here
// as a utilization gap against its sibling subtrees.
type SwitchUtil struct {
	Switch string
	Cards  int
	Util   float64
}

// Aggregate merges per-node results of a cluster run into one cluster-level
// Result: bytes and energy sum, kernel latencies concatenate, completion
// times shift by each part's host-dispatch offset, and the makespan is the
// latest node finish. WorkerUtil averages node utilizations over the cluster
// makespan across all devices cards, so cards that finish early (or never
// receive work) count as idle. Time series are not merged — cluster results
// carry no Fig. 15 traces.
func Aggregate(system, workload string, devices int, parts []Part) *Result {
	r := &Result{System: system, Workload: workload}
	// Size the concatenated latency and offset-shifted completion slices
	// once from the summed part lengths, so merging N cards appends into
	// exactly two allocations instead of regrowing per part.
	var nLat, nComp int
	for _, p := range parts {
		if p.Res != nil {
			nLat += len(p.Res.KernelLatencies)
			nComp += len(p.Res.CompletionTimes)
		}
	}
	if nLat > 0 {
		r.KernelLatencies = make([]units.Duration, 0, nLat)
	}
	if nComp > 0 {
		r.CompletionTimes = make([]sim.Time, 0, nComp)
	}
	var utilWeighted float64
	comps := map[string]*power.Entry{}
	type swAcc struct {
		cards        int
		utilWeighted float64
	}
	var swOrder []string
	sws := map[string]*swAcc{}
	for _, p := range parts {
		if p.Switch != "" {
			a := sws[p.Switch]
			if a == nil {
				a = &swAcc{}
				sws[p.Switch] = a
				swOrder = append(swOrder, p.Switch)
			}
			a.cards++
			if p.Res != nil {
				a.utilWeighted += p.Res.WorkerUtil * float64(p.Res.Makespan)
			}
		}
		r.Faults = append(r.Faults, p.Faults...)
		if p.Res == nil {
			continue // idle card: counted above, nothing to merge
		}
		res := p.Res
		if fin := p.Offset + res.Makespan; fin > r.Makespan {
			r.Makespan = fin
		}
		r.Bytes += res.Bytes
		r.KernelLatencies = append(r.KernelLatencies, res.KernelLatencies...)
		for _, t := range res.CompletionTimes {
			r.CompletionTimes = append(r.CompletionTimes, t+p.Offset)
		}
		utilWeighted += res.WorkerUtil * float64(res.Makespan)
		for c := range res.Energy {
			r.Energy[c] += res.Energy[c]
		}
		for _, e := range res.ByComponent {
			if a, ok := comps[e.Component]; ok {
				a.Joules += e.Joules
			} else {
				cp := e
				comps[e.Component] = &cp
			}
		}
		r.AccelTime += res.AccelTime
		r.SSDTime += res.SSDTime
		r.StackTime += res.StackTime
		r.DrainTime += res.DrainTime
		r.Visor.ReadGroups += res.Visor.ReadGroups
		r.Visor.WriteGroups += res.Visor.WriteGroups
		r.Visor.FGReclaims += res.Visor.FGReclaims
		r.Visor.Migrated += res.Visor.Migrated
		r.Visor.JournalWrites += res.Visor.JournalWrites
		r.Visor.UnmappedReads += res.Visor.UnmappedReads
		r.FlashRetries += res.FlashRetries
		r.RetryTime += res.RetryTime
		r.Faults = append(r.Faults, res.Faults...)
		r.BGReclaims += res.BGReclaims
		r.Journals += res.Journals
		r.LockConflicts += res.LockConflicts
		r.LockWaited += res.LockWaited
	}
	if r.Makespan > 0 && devices > 0 {
		r.WorkerUtil = utilWeighted / (float64(devices) * float64(r.Makespan))
	}
	for _, name := range swOrder {
		a := sws[name]
		u := SwitchUtil{Switch: name, Cards: a.cards}
		if r.Makespan > 0 && a.cards > 0 {
			u.Util = a.utilWeighted / (float64(a.cards) * float64(r.Makespan))
		}
		r.SwitchUtils = append(r.SwitchUtils, u)
	}
	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.ByComponent = append(r.ByComponent, *comps[name])
	}
	return r
}

// String renders a one-line summary.
func (r *Result) String() string {
	mn, av, mx := r.LatencyStats()
	return fmt.Sprintf("%s/%s: %.1f MB/s, makespan %s, lat[min/avg/max] %s/%s/%s, util %.0f%%, energy %.2f J",
		r.Workload, r.System, r.ThroughputMBps(), units.FormatDuration(r.Makespan),
		units.FormatDuration(mn), units.FormatDuration(av), units.FormatDuration(mx),
		r.WorkerUtil*100, r.Energy.Total())
}
