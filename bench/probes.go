package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	probeOps     = 4096 // calls per repetition of a sim primitive
	probeGroups  = 1024 // page groups per repetition of a flash-layer call
	probeErases  = 256  // super-block erases per repetition
	probeForks   = 4    // image forks per repetition
	probeAppends = 100  // journal appends per repetition, each timed alone
)

// runProbes times direct calls into each layer's public functions with
// the workload's flash geometry and sizes. It runs after the timed window.
// Each probe repeats o.size.ProbeReps times and reports the median and the
// interquartile range of the per-operation time.
func runProbes(ctx context.Context, o *options, churnGeometry bool, journalBytes int) (map[string]float64, error) {
	cfg := core.DefaultConfig(core.IntraO3)
	if churnGeometry {
		cfg = churnConfig(o.size)
	}
	reps := o.size.ProbeReps
	out := map[string]float64{}
	put := func(name string, perOp []float64) {
		out[name] = median(perOp)
		out[name+".iqr"] = iqr(perOp)
	}
	geo := cfg.Flash
	gs := geo.GroupSize()

	// sim: one channel's share of a page group per transfer, one
	// Flashvisor per-group cost per reservation, one event per step.
	pipe := sim.NewPipe("probe", cfg.FlashTiming.ChannelBW)
	var at sim.Time
	put("sim.pipe_transfer_ns", repeat(reps, probeOps, probeOps, func() {
		_, at = pipe.Transfer(at, int64(geo.PlanesPerDie)*geo.PageSize)
	}))
	res := sim.NewResource("probe")
	at = 0
	put("sim.resource_reserve_ns", repeat(reps, probeOps, probeOps, func() {
		_, at = res.Reserve(at, cfg.Visor.PerGroupCost)
	}))
	eng := &sim.Engine{}
	nop := func() {}
	steps := make([]float64, reps)
	for r := range steps {
		t := time.Now()
		for i := 0; i < probeOps; i++ {
			eng.Schedule(eng.Now()+sim.Time(i), nop)
		}
		for eng.Step() {
		}
		steps[r] = nsPer(time.Since(t), probeOps)
	}
	put("sim.engine_step_ns", steps)

	// flashctrl on a fresh device's controller complex.
	d, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	ctrl := d.Visor().Controller()
	at = 0
	put("flashctrl.read_seq_ns_per_group", repeat(reps, 1, probeGroups, func() {
		ctrl.ReadGroupsSeq(at, cfg.Visor.PerGroupCost, 0, probeGroups, func(_ int, end sim.Time) { at = end })
	}))
	at = 0
	put("flashctrl.program_ns_per_group", repeat(reps, probeGroups, probeGroups, func() {
		at = ctrl.ProgramGroup(at, flash.PhysGroup(0))
	}))
	at = 0
	put("flashctrl.migrate_ns_per_group", repeat(reps, probeGroups, probeGroups, func() {
		at = ctrl.MigrateGroup(at, 0, probeGroups)
	}))
	at = 0
	sb := 0
	put("flashctrl.erase_ns", repeat(reps, probeErases, probeErases, func() {
		at = ctrl.EraseSuper(at, flash.SuperBlock(sb%geo.SuperBlocks()))
		sb++
	}))

	// flashvisor: reads of a populated range, writes of a fresh one.
	d, err = core.New(cfg)
	if err != nil {
		return nil, err
	}
	v := d.Visor()
	span := probeGroups * gs
	if err := v.Populate(0, span, nil); err != nil {
		return nil, err
	}
	var probeErr error
	at = 0
	put("flashvisor.mapread_ns_per_group", repeat(reps, 1, probeGroups, func() {
		var err error
		if at, _, err = v.MapRead(at, 0, 0, span); err != nil {
			probeErr = err
		}
	}))
	put("flashvisor.mapwrite_ns_per_group", repeat(reps, 1, probeGroups, func() {
		var err error
		if at, err = v.MapWrite(at, 1, span, span, nil); err != nil {
			probeErr = err
		}
	}))
	if probeErr != nil {
		return nil, probeErr
	}

	// cluster: fork of the MX1 offloaded image at the paper's scale.
	opts := workload.DefaultOptions()
	opts.Scale = o.size.PaperScale
	b, err := workload.Mix(1, opts)
	if err != nil {
		return nil, err
	}
	fcfg := core.DefaultConfig(core.IntraO3)
	img, err := cluster.NewImageCache().Offloaded(ctx, fcfg, b)
	if err != nil {
		return nil, err
	}
	var forks []float64
	for _, ns := range repeat(reps, probeForks, probeForks, func() {
		if _, err := img.Fork(fcfg); err != nil {
			probeErr = err
		}
	}) {
		forks = append(forks, ns/1000)
	}
	if probeErr != nil {
		return nil, probeErr
	}
	put("cluster.fork_us", forks)

	// journal: durable appends of a result-sized Done record.
	j, err := journal.Open(filepath.Join(o.tmp, "probe-journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	rec := journal.Record{Kind: journal.Done, ID: "j000001", Client: "probe", Output: make([]byte, journalBytes)}
	appends := make([]float64, 0, reps*probeAppends)
	for i := 0; i < reps*probeAppends; i++ {
		t := time.Now()
		if err := j.Append(rec); err != nil {
			return nil, errors.Join(fmt.Errorf("journal append: %w", err), j.Close())
		}
		appends = append(appends, float64(time.Since(t).Nanoseconds())/1000)
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	out["journal.append_us.p50"] = median(appends)
	out["journal.append_us.p99"] = quantile(appends, 0.99)
	return out, nil
}

// repeat runs op calls times per repetition and returns each
// repetition's nanoseconds per unit of work, where the calls together do
// units units.
func repeat(reps, calls, units int, op func()) []float64 {
	out := make([]float64, reps)
	for r := range out {
		t := time.Now()
		for i := 0; i < calls; i++ {
			op()
		}
		out[r] = nsPer(time.Since(t), units)
	}
	return out
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
