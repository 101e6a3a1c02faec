// Package cluster is the host-level scale-out layer: it shards one workload
// bundle across N simulated FlashAbacus cards sitting behind a shared host
// PCIe switch and aggregates the per-card measurements into one cluster
// result.
//
// The paper's closing argument is that self-governed accelerators remove the
// host storage stack so cheaply that cards can be ganged; this package
// models the layer that ganging actually needs — the dispatcher above the
// array. Two dispatch policies mirror the paper's two governor families:
//
//   - RoundRobin statically binds application i to card i mod N, the
//     cluster-level analogue of the InterSt governor. Each card runs its
//     application subset as one self-governed device simulation, so
//     intra-card scheduling, flash contention, and GC behave exactly as in
//     the single-card evaluation.
//
//   - WorkSteal dispatches kernel instances dynamically: the host keeps a
//     queue of instances and hands the next one to whichever card frees up
//     first, the analogue of InterDy's claim-next-kernel rule. Placement is
//     decided by replaying that claim loop against standalone-instance
//     runtime estimates (each instance probed as its own device run); the
//     cards then execute their claimed sets as ordinary self-governed
//     device simulations, so intra-card concurrency is preserved and only
//     the instance-to-card mapping is dynamic.
//
// Kernel downloads serialize through a shared host link (a bandwidth-limited
// FIFO pipe plus a per-dispatch latency), so a card's run starts only when
// its tables have cleared the switch. Input data is replicated to every card
// untimed, mirroring the single-device model where PopulateInput is
// preparation rather than measured work.
//
// Clusters need not be homogeneous. A Topology declares the shape
// explicitly — a tree of host-side switches, each its own pipe, fanning
// out to cards that may each carry a geometry skew (flash channels,
// superblock size, LWP count, scratchpad size) derived from the base
// configuration via core.Config.Derive. Both policies are topology-aware:
// round-robin weights its rotation by card capability, and work-stealing
// probes per card class and routes claims through the owning switch, so a
// congested switch naturally sheds work to the other subtree. The implicit
// single-switch homogeneous topology (no Options.Topology) is dispatched
// byte-identically to the pre-topology layer.
//
// A cluster of one is the identity: Run with cfg.Devices <= 1 takes exactly
// the single-device path (RunSingle), byte-identical to experiments.RunBundle.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flash"
	"repro/internal/kdt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Policy selects how the host dispatcher shards work across cards.
type Policy int

const (
	// RoundRobin statically assigns application i to card i mod N.
	RoundRobin Policy = iota
	// WorkSteal hands the next queued kernel instance to the first free card.
	WorkSteal
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case WorkSteal:
		return "steal"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies lists the dispatch policies in presentation order.
var Policies = []Policy{RoundRobin, WorkSteal}

// HostConfig models the shared host-side dispatch path the cards sit
// behind: one PCIe switch uplink that kernel downloads serialize through,
// plus the host software latency paid per dispatch.
type HostConfig struct {
	// BW is the switch uplink bandwidth shared by every card.
	BW units.Bandwidth
	// DispatchLatency is the per-dispatch host overhead (doorbell, queue
	// bookkeeping) added before a download's data moves.
	DispatchLatency units.Duration
}

// DefaultHost returns a PCIe 3.0 x8-class switch uplink with a few
// microseconds of host dispatch software overhead.
func DefaultHost() HostConfig {
	return HostConfig{BW: 8 * units.GBps, DispatchLatency: 5 * units.Microsecond}
}

// Validate reports a host-model error, or nil.
func (h HostConfig) Validate() error {
	if h.BW <= 0 {
		return fmt.Errorf("cluster: non-positive host bandwidth")
	}
	if h.DispatchLatency < 0 {
		return fmt.Errorf("cluster: negative dispatch latency")
	}
	return nil
}

// Options tunes a cluster run.
type Options struct {
	// Policy selects the dispatch policy (default RoundRobin).
	Policy Policy
	// Host is the shared dispatch path; the zero value selects DefaultHost.
	// With a Topology it models the root uplink above the switches.
	Host HostConfig
	// Workers bounds how many card simulations run concurrently in wall
	// clock (0 means runtime.GOMAXPROCS(0)). Simulated time is unaffected.
	Workers int
	// Topology declares the cluster shape explicitly: switches with their
	// own bandwidth/latency fanning out to possibly-skewed cards. The zero
	// value keeps the classic implicit topology — one switch, cfg.Devices
	// identical cards — whose output is byte-identical to the pre-topology
	// cluster layer. When set, cfg.Devices is ignored: the topology owns
	// the card count.
	Topology Topology
	// Images, when non-nil, shares formatted/populated device images and
	// work-steal probe results across dispatches: every card and probe
	// forks its class's image copy-on-write instead of rebuilding, and a
	// probe run is simulated once per (card class, bundle, instance). The
	// output is byte-identical either way — the cache only removes
	// rebuild work, never changes simulated state.
	Images *ImageCache
	// Faults, when non-nil and non-zero, injects the plan's deterministic
	// failure schedule into the run: card deaths reroute work per the
	// policy's recovery rules, switch windows degrade the dispatch
	// fabric, and flash wear stretches reads. A nil or zero plan leaves
	// the run byte-identical to a healthy one.
	Faults *faults.Plan
}

// RunSingle runs one bundle on one card: the node lifecycle experiments.
// RunBundle delegates to, and the devices<=1 path of Run.
func RunSingle(ctx context.Context, cfg core.Config, b *workload.Bundle) (*stats.Result, error) {
	return RunSingleCached(ctx, cfg, b, nil)
}

// RunSingleCached is RunSingle forking the cached device image for
// (cfg, b) instead of rebuilding the format/populate/offload lifecycle.
// A nil cache, an unkeyed (hand-assembled) bundle, or a bundle whose
// populate proves unforkable runs the lifecycle from scratch; either way
// the result is byte-identical.
func RunSingleCached(ctx context.Context, cfg core.Config, b *workload.Bundle, images *ImageCache) (*stats.Result, error) {
	return runSingleCached(ctx, cfg, b, images, nil)
}

// runSingleCached is RunSingleCached with an optional flash wear model
// installed before the run (images stay shared — wear only stretches
// simulated read timing, never image contents).
func runSingleCached(ctx context.Context, cfg core.Config, b *workload.Bundle, images *ImageCache, ret flash.ReadRetrier) (*stats.Result, error) {
	var n *Node
	if images != nil && bundleID(b) != "" {
		img, err := images.Offloaded(ctx, cfg, b)
		switch {
		case err == nil:
			if n, err = NewNodeFromImage(0, img, cfg); err != nil {
				return nil, fmt.Errorf("%s/%s: fork: %w", b.Name, cfg.System, err)
			}
		case errors.Is(err, core.ErrUnforkable):
			// fall through to the plain lifecycle below
		default:
			return nil, fmt.Errorf("%s/%s: image: %w", b.Name, cfg.System, err)
		}
	}
	if n == nil {
		var err error
		if n, err = NewNode(0, cfg); err != nil {
			return nil, err
		}
		if err := n.Populate(b.Populate); err != nil {
			return nil, fmt.Errorf("%s/%s: populate: %w", b.Name, cfg.System, err)
		}
		if err := n.Offload(b.Apps); err != nil {
			return nil, fmt.Errorf("%s/%s: offload: %w", b.Name, cfg.System, err)
		}
	}
	if ret != nil {
		n.Device().InstallFlashRetrier(ret)
	}
	res, err := n.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", b.Name, cfg.System, err)
	}
	res.Workload = b.Name
	return res, nil
}

// Run shards bundle b across a cluster of cards and returns the aggregated
// result. With the zero Options.Topology, cfg describes each (identical)
// card and cfg.Devices is the card count — the classic single-switch
// array. With an explicit Topology, cfg is the base card every per-card
// skew derives from, and the topology owns the shape. Cancelling ctx
// abandons every in-flight card simulation and returns the context's
// error.
func Run(ctx context.Context, cfg core.Config, b *workload.Bundle, o Options) (*stats.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan := o.Faults
	if plan.IsZero() {
		plan = nil // a zero plan is exactly a healthy run
	}
	topo := o.Topology
	if topo.IsZero() {
		devices := cfg.Devices
		if devices < 1 {
			devices = 1
		}
		if devices == 1 {
			if plan != nil && len(plan.Events) > 0 {
				return nil, fmt.Errorf("cluster: fault plan schedules card/switch events but the run has a single card")
			}
			res, err := runSingleCached(ctx, cfg, b, o.Images, wearFor(plan, cfg))
			if err != nil {
				return nil, err
			}
			return withWearRecord(res, plan), nil
		}
		topo = Uniform(devices)
	} else if err := topo.Validate(cfg); err != nil {
		return nil, err
	}
	if o.Host == (HostConfig{}) {
		o.Host = DefaultHost()
	}
	if err := o.Host.Validate(); err != nil {
		return nil, err
	}
	if len(b.Apps) == 0 {
		return nil, fmt.Errorf("cluster: %s has no applications", b.Name)
	}
	cards, classCfgs, err := flatten(topo, cfg)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		names := make([]string, len(topo.Switches))
		for i := range topo.Switches {
			names[i] = topo.switchName(i)
		}
		if err := plan.ValidateFor(len(cards), names); err != nil {
			return nil, err
		}
	}
	fab := newFabric(topo, o.Host, !o.Topology.IsZero(), plan)
	var parts []stats.Part
	switch o.Policy {
	case RoundRobin:
		parts, err = runRoundRobin(ctx, b, cards, fab, o, plan)
	case WorkSteal:
		parts, err = runWorkSteal(ctx, b, cards, classCfgs, fab, o, plan)
	default:
		return nil, fmt.Errorf("cluster: unknown policy %d", int(o.Policy))
	}
	if err != nil {
		return nil, err
	}
	res := stats.Aggregate(cfg.System.String(), b.Name, len(cards), parts)
	return finishFaulted(res, plan), nil
}

// fabric is the host-side dispatch path of one run: the root uplink (only
// present for explicit multi-switch topologies) and one pipe per switch.
// In the implicit single-switch mode the lone switch pipe IS the classic
// host link — no second hop, no per-switch labels — which keeps that path
// byte-identical to the pre-topology dispatcher.
type fabric struct {
	root   *sim.Pipe   // nil in implicit single-switch mode
	sws    []*sim.Pipe // per switch, topology order
	labels []string    // per-switch stats label ("" in implicit mode)
	// wins holds each switch's fault-plan degradation windows, sorted by
	// start (nil on healthy runs). Fault targeting always uses the
	// switch's topology name — "sw0" in implicit mode — even where the
	// stats label is "".
	wins [][]faults.Window
}

// newFabric builds the dispatch pipes. host models the root uplink (or, in
// implicit mode, the whole path); each switch's zero BW defaults to the
// host's.
func newFabric(t Topology, host HostConfig, explicit bool, plan *faults.Plan) *fabric {
	f := &fabric{}
	if plan != nil {
		f.wins = make([][]faults.Window, len(t.Switches))
		for i := range t.Switches {
			f.wins[i] = plan.SwitchWindows(t.switchName(i))
		}
	}
	if explicit {
		f.root = sim.NewPipe("host-uplink", host.BW)
		f.root.Latency = host.DispatchLatency
		for i, sw := range t.Switches {
			name := t.switchName(i)
			bw := sw.BW
			if bw == 0 {
				bw = DefaultHost().BW
			}
			p := sim.NewPipe(name, bw)
			p.Latency = sw.DispatchLatency
			f.sws = append(f.sws, p)
			f.labels = append(f.labels, name)
		}
		return f
	}
	link := sim.NewPipe("host-switch", host.BW)
	link.Latency = host.DispatchLatency
	f.sws = []*sim.Pipe{link}
	f.labels = []string{""}
	return f
}

// degrade applies switch sw's fault windows to a dispatch requested at
// time at: a flap window stalls the request to the window's end
// (cascading through later windows), a throttle window inflates the
// transfer's effective size by 100/factor. Both adjustments are
// monotone in at, so FIFO request order through the pipe is preserved.
func (f *fabric) degrade(at units.Duration, sw int, bytes int64) (units.Duration, int64) {
	for _, w := range f.wins[sw] {
		if at < w.From || at >= w.Until {
			continue
		}
		if w.FactorPct == 0 {
			at = w.Until // link down: dispatch waits out the flap
		} else {
			bytes = (bytes*100 + int64(w.FactorPct) - 1) / int64(w.FactorPct)
		}
	}
	return at, bytes
}

// dispatch books one kernel download to a card behind switch sw, requested
// at time at, and returns its arrival: through the root uplink first (when
// present), then the owning switch. Both pipes are FIFO, so callers must
// issue dispatches with non-decreasing request times — which the claim
// loop's non-decreasing free instants and the round-robin card order both
// guarantee.
func (f *fabric) dispatch(at units.Duration, sw int, bytes int64) units.Duration {
	if f.root != nil {
		_, at = f.root.Transfer(at, bytes)
	}
	if f.wins != nil {
		at, bytes = f.degrade(at, sw, bytes)
	}
	_, end := f.sws[sw].Transfer(at, bytes)
	return end
}

// label returns the stats label of switch sw ("" in implicit mode, so the
// classic path aggregates without per-switch rows).
func (f *fabric) label(sw int) string { return f.labels[sw] }

// assignApps distributes application indices across cards by weighted
// deficit round-robin: each application goes to the card maximizing
// weight/(assigned+1), ties to the lowest card id. Equal weights reduce
// exactly to the classic i mod N rotation; skewed topologies send
// proportionally more applications to more capable cards.
func assignApps(cards []card, napps int) [][]int {
	shards := make([][]int, len(cards))
	for i := 0; i < napps; i++ {
		best := 0
		bestScore := cards[0].weight / float64(len(shards[0])+1)
		for c := 1; c < len(cards); c++ {
			if score := cards[c].weight / float64(len(shards[c])+1); score > bestScore {
				best, bestScore = c, score
			}
		}
		shards[best] = append(shards[best], i)
	}
	return shards
}

// offloadBytes is the wire size of an application set's kernel description
// tables — what the shared host link carries per dispatch. Encoding errors
// surface later, when the card's own offload encodes the same tables.
func offloadBytes(apps []workload.App) int64 {
	var n int64
	for _, app := range apps {
		for _, t := range app.Tables {
			if blob, err := t.Encode(); err == nil {
				n += int64(len(blob))
			}
		}
	}
	return n
}

// runRoundRobin implements the static policy: applications rotate across
// cards (capability-weighted, so a homogeneous topology is exactly the
// classic i mod N), every card runs its subset as one device simulation,
// and each card's run begins when its downloads clear the dispatch fabric.
func runRoundRobin(ctx context.Context, b *workload.Bundle, cards []card, fab *fabric, o Options, plan *faults.Plan) ([]stats.Part, error) {
	assigned := assignApps(cards, len(b.Apps))
	shards := make([][]workload.App, len(cards))
	for c, idxs := range assigned {
		for _, i := range idxs {
			shards[c] = append(shards[c], b.Apps[i])
		}
	}

	// Downloads stream card by card through the fabric, so card c's
	// simulated run starts at its last table's arrival.
	offsets := make([]units.Duration, len(cards))
	for c := range shards {
		if len(shards[c]) == 0 {
			continue
		}
		offsets[c] = fab.dispatch(0, cards[c].sw, offloadBytes(shards[c]))
	}

	results, err := runner.Collect(ctx, runner.New(o.Workers), len(cards),
		func(ctx context.Context, c int) (*stats.Result, error) {
			if len(shards[c]) == 0 {
				return nil, nil // more cards than applications: card stays idle
			}
			res, err := runShard(ctx, c, cards[c].cfg, b, shards[c], o.Images, wearFor(plan, cards[c].cfg))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: card %d: %w", b.Name, cards[c].cfg.System, c, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	// Card deaths (none on a healthy run) are replayed over the completed
	// dispatch; with no deaths this only assembles the parts.
	return recoverRoundRobin(ctx, b, cards, fab, o, plan, assigned, offsets, results)
}

// collectParts labels per-card results with their owning switch. Idle
// cards (nil results) are dropped on the classic unlabeled path, but kept
// as empty labeled parts under an explicit topology so per-switch card
// counts — and hence per-switch utilization denominators — stay honest.
// faultsBy attaches each card's fault records to its part; a dead card
// whose whole result was lost still surfaces its record through an
// otherwise-empty part.
func collectParts(results []*stats.Result, offsets []units.Duration, cards []card, fab *fabric, faultsBy [][]stats.FaultRecord) []stats.Part {
	var parts []stats.Part
	for c, res := range results {
		label := fab.label(cards[c].sw)
		fr := faultsBy[c]
		if res != nil {
			parts = append(parts, stats.Part{Res: res, Offset: offsets[c], Switch: label, Faults: fr})
		} else if label != "" || len(fr) > 0 {
			parts = append(parts, stats.Part{Switch: label, Faults: fr})
		}
	}
	return parts
}

// runWorkSteal implements the dynamic policy in two phases.
//
// Probe: every kernel instance runs standalone as its own device
// simulation, once per distinct card class (concurrently in wall clock),
// yielding the per-class runtime estimates the host's dispatcher schedules
// by — the stand-in for the completion notifications InterDy reacts to
// inside a card. A homogeneous topology has one class, so it probes
// exactly the classic per-instance set.
//
// Claim loop (claimWithDeaths): in simulated time, the card with the
// earliest estimated free instant claims the next queued instance, paying
// the dispatch-fabric download before its estimated run. Because a
// claim's arrival includes the owning switch's queueing delay, a
// congested switch pushes its cards' free instants out and the loop
// naturally routes later claims to the other subtree. The loop fixes only the instance-to-card mapping and each
// card's first-dispatch time; the cards then execute their claimed sets as
// ordinary self-governed device simulations, so a card's internal governor
// still overlaps its instances. Both phases are deterministic regardless
// of wall-clock worker count.
func runWorkSteal(ctx context.Context, b *workload.Bundle, cards []card, classCfgs []core.Config, fab *fabric, o Options, plan *faults.Plan) ([]stats.Part, error) {
	var instances []workload.App
	for _, app := range b.Apps {
		for k, t := range app.Tables {
			instances = append(instances, workload.App{
				Name:   fmt.Sprintf("%s#%d", app.Name, k),
				Tables: []*kdt.Table{t},
			})
		}
	}

	// probes[cls*len(instances)+i] estimates instance i on card class cls.
	// With wear active the probe memo is bypassed: its key does not carry
	// the plan, and the estimates must be wear-aware so the claim loop
	// schedules against the latencies the cards will actually see.
	n := len(instances)
	probes, err := runner.Collect(ctx, runner.New(o.Workers), len(classCfgs)*n,
		func(ctx context.Context, flat int) (*stats.Result, error) {
			cls, i := flat/n, flat%n
			probe := func(ctx context.Context) (*stats.Result, error) {
				return runShard(ctx, i, classCfgs[cls], b, instances[i:i+1], o.Images, wearFor(plan, classCfgs[cls]))
			}
			var res *stats.Result
			var err error
			if plan.WearActive() {
				res, err = probe(ctx)
			} else {
				res, err = o.Images.Probe(ctx, classCfgs[cls], b, instances[i].Name, probe)
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: probe %s (class %d): %w",
					b.Name, classCfgs[cls].System, instances[i].Name, cls, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	claims, starts, faultsBy, err := claimWithDeaths(b, cards, fab, plan, instances, probes)
	if err != nil {
		return nil, err
	}

	results, err := runner.Collect(ctx, runner.New(o.Workers), len(cards),
		func(ctx context.Context, c int) (*stats.Result, error) {
			if len(claims[c]) == 0 {
				return nil, nil // more cards than instances: card stays idle
			}
			res, err := runShard(ctx, c, cards[c].cfg, b, claims[c], o.Images, wearFor(plan, cards[c].cfg))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: card %d: %w", b.Name, cards[c].cfg.System, c, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	// A card starts when its first claim lands; later claims'
	// microsecond-scale downloads overlap its execution.
	return collectParts(results, starts, cards, fab, faultsBy), nil
}

// runShard walks one card through the node lifecycle for a subset of the
// bundle's applications. The full input set is replicated to each card —
// with an image cache by forking the card class's populated image
// copy-on-write, without one by populating from scratch.
func runShard(ctx context.Context, id int, cfg core.Config, b *workload.Bundle, apps []workload.App, images *ImageCache, ret flash.ReadRetrier) (*stats.Result, error) {
	var n *Node
	if images != nil && bundleID(b) != "" {
		img, err := images.Populated(ctx, cfg, b)
		switch {
		case err == nil:
			if n, err = NewNodeFromImage(id, img, cfg); err != nil {
				return nil, fmt.Errorf("fork: %w", err)
			}
		case errors.Is(err, core.ErrUnforkable):
			// fall through to the plain lifecycle below
		default:
			return nil, fmt.Errorf("image: %w", err)
		}
	}
	if n == nil {
		var err error
		if n, err = NewNode(id, cfg); err != nil {
			return nil, err
		}
		if err := n.Populate(b.Populate); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	if err := n.Offload(apps); err != nil {
		return nil, fmt.Errorf("offload: %w", err)
	}
	if ret != nil {
		n.Device().InstallFlashRetrier(ret)
	}
	return n.Run(ctx)
}
