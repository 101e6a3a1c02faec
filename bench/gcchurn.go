package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kdt"
	"repro/internal/stats"
)

// churnPinned holds the summed simulated counters of the full-size
// gc-churn pass for one seed, as "seed=N <counterDigest>".
//
//go:embed testdata/gc-churn.txt
var churnPinned string

func init() {
	register(&workloadDef{
		name:  "gc-churn",
		pass:  spawnPass,
		child: churnChild,
		check: func(_ context.Context, o *options, ps []*passResult) (int, error) {
			seedField, want, _ := strings.Cut(strings.TrimSpace(churnPinned), " ")
			if o.size != fullSize || seedField != fmt.Sprintf("seed=%d", o.seed) {
				return 0, nil // counters are pinned for one seed at full size
			}
			wrong := 0
			for _, p := range ps {
				if p.Digest != want {
					wrong++
				}
			}
			return wrong, nil
		},
		summarize: func(ps []*passResult, vals map[string]float64) {
			vals["p50_ms"] = median(pooled(ps, "run_ms"))
		},
		churnGeometry: true,
	})
}

// churnConfig is a gc-churn device: IntraO3 on a shrunken backbone (about
// 1 GB logical at full size), so the writers overwrite the space many
// times over and garbage collection runs in the foreground.
func churnConfig(s sizes) core.Config {
	cfg := core.DefaultConfig(core.IntraO3)
	cfg.Flash.BlocksPerDie = s.ChurnBlocks
	cfg.Flash.PagesPerBlock = s.ChurnPages
	return cfg
}

// churnTables builds device dev's write-heavy bundle: writers kernels,
// each running rounds serial read/compute/write screens over a region of
// the top half of the logical space. The regions are a fixed set per
// device (group-aligned offsets, spans laddered from a sixteenth to a
// quarter of the top half) and the seed orders the kernels, so every seed
// overwrites the same groups the same number of times. Which writer
// reaches the log head first still changes how much garbage collection
// migrates, by several percent per device; a pass sums several devices to
// average that out.
func churnTables(seed int64, dev int, logical, gs int64, writers, rounds int) []*kdt.Table {
	base := (logical/2 + gs - 1) / gs // first group of the top half
	top := logical/gs - base          // groups in the top half
	n := writers * rounds
	place := rand.New(rand.NewPCG(uint64(dev), 0x72656769))
	tables := make([]*kdt.Table, writers)
	for w := range tables {
		tables[w] = &kdt.Table{Name: fmt.Sprintf("churn%d", w), Sections: kdt.DefaultSections(64, top*gs)}
	}
	for k := 0; k < n; k++ {
		span := top/16 + (top/4-top/16)*int64(k)/int64(max(n-1, 1))
		off := (base + place.Int64N(top-span+1)) * gs
		t := tables[k%writers]
		t.Microblocks = append(t.Microblocks, kdt.Microblock{Screens: []kdt.Screen{{Ops: []kdt.Op{
			{Kind: kdt.OpRead, Section: 1, FlashAddr: off, Bytes: span * gs},
			{Kind: kdt.OpCompute, Instr: 1_000_000, LdStMilli: 300},
			{Kind: kdt.OpWrite, Section: 1, FlashAddr: off, Bytes: span * gs},
		}}}})
	}
	rand.New(rand.NewPCG(uint64(seed), 0x63687572+uint64(dev))).Shuffle(writers, func(i, j int) {
		tables[i], tables[j] = tables[j], tables[i]
	})
	return tables
}

// churnChild runs one gc-churn pass: set-up (for each of the pass's
// devices: New, populate the whole logical space, offload the writers)
// setupReps times, then Run every device of the last set-up and check its
// mapping tables.
func churnChild(ctx context.Context, sp childSpec) (*passResult, error) {
	p := newPassResult()
	tr := newTracer(sp.Traced)
	cfg := churnConfig(sp.Size)
	pass := tr.begin("gc-churn.pass", nil, 0, "")
	var devs []*core.Device
	var t0 time.Time
	phases := map[string][]float64{}
	for rep := 0; rep < setupReps; rep++ {
		t0 = time.Now()
		setup := tr.begin("gc-churn.setup", pass, 0, "")
		devs = devs[:0]
		for dev := 0; dev < sp.Size.ChurnDevices; dev++ {
			d, err := churnSetup(cfg, sp, dev, tr, setup, phases)
			if err != nil {
				return nil, err
			}
			devs = append(devs, d)
		}
		setup.end(map[string]any{"rep": rep, "devices": len(devs)})
		phases["setup_s"] = append(phases["setup_s"], time.Since(t0).Seconds())
	}
	for k, xs := range phases {
		p.Vals[k] = median(xs)
	}

	var total stats.Result
	var runS float64
	for dev, d := range devs {
		t := time.Now()
		s := tr.begin("core.run", pass, 0, fmt.Sprintf("device%d", dev))
		res, err := d.Run(ctx)
		if err != nil {
			return nil, err
		}
		secs := time.Since(t).Seconds()
		s.end(map[string]any{"read_groups": res.Visor.ReadGroups, "write_groups": res.Visor.WriteGroups,
			"fg_reclaims": res.Visor.FGReclaims, "migrated": res.Visor.Migrated})
		runS += secs
		p.Lists["run_ms"] = append(p.Lists["run_ms"], secs*1000)
		p.Attempted++
		if err := d.Visor().FTL.CheckConsistency(); err != nil {
			fmt.Fprintf(os.Stderr, "gc-churn: device %d mapping tables inconsistent after run: %v\n", dev, err)
			p.Failed++
		}
		addCounters(&total, res)
	}
	p.Wall = time.Since(t0).Seconds()
	pass.end(nil)

	putCounters(p.Vals, &total)
	groups := total.Visor.ReadGroups + total.Visor.WriteGroups + total.Visor.Migrated
	p.Vals["core.run_s"] = runS
	p.Vals["core.groups_per_host_s"] = float64(groups) / runS
	p.Vals["jobs_per_s"] = float64(len(devs)) / runS
	p.Digest = counterDigest(&total)
	p.Spans = tr.collected()
	return p, nil
}

// churnSetup builds, populates and offloads device dev of a gc-churn
// pass, adding each phase's host time to phases.
func churnSetup(cfg core.Config, sp childSpec, dev int, tr *tracer, parent *openSpan, phases map[string][]float64) (*core.Device, error) {
	key := fmt.Sprintf("device%d", dev)
	t := time.Now()
	s := tr.begin("core.new", parent, 0, key)
	d, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s.end(nil)
	phases["core.new_ms"] = append(phases["core.new_ms"], time.Since(t).Seconds()*1000)

	logical := d.Visor().FTL.LogicalBytes()
	t = time.Now()
	s = tr.begin("core.populate", parent, 0, key)
	if err := d.PopulateInput(0, logical, nil); err != nil {
		return nil, err
	}
	s.end(map[string]any{"bytes": logical})
	phases["core.populate_ms"] = append(phases["core.populate_ms"], time.Since(t).Seconds()*1000)

	tables := churnTables(sp.Seed, dev, logical, cfg.Flash.GroupSize(), sp.Size.ChurnWriters, sp.Size.ChurnRounds)
	t = time.Now()
	s = tr.begin("core.offload", parent, 0, key)
	if err := d.OffloadApp("gc-churn", tables); err != nil {
		return nil, err
	}
	s.end(map[string]any{"kernels": len(tables)})
	phases["core.offload_ms"] = append(phases["core.offload_ms"], time.Since(t).Seconds()*1000)
	return d, nil
}
