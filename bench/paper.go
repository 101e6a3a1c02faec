package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// paperDigest is the sha256 of `abacus-repro -scale 1 -devices 8 -faults
// cardloss`; the paper workload's render must match it at any cell order.
//
//go:embed testdata/paper.sha256
var paperDigest string

const (
	// simWorkers is the simulation parallelism of the paper workload
	// (Suite.Workers) and of its image set-up: the measured machine's
	// core count, fixed so every machine does the same work.
	simWorkers = 2
	paperFault = "cardloss"
)

// cellKinds name the cell kinds a paper pass simulates, longest-running
// first: a series cell takes about 200 ms of host time, a sensitivity
// cell well under 1 ms.
var cellKinds = []struct {
	kind experiments.Kind
	name string
}{
	{experiments.KindSeries, "series"},
	{experiments.KindFault, "fault"},
	{experiments.KindHeterogeneous, "heterogeneous"},
	{experiments.KindCluster, "cluster"},
	{experiments.KindHomogeneous, "homogeneous"},
	{experiments.KindBigdata, "bigdata"},
	{experiments.KindSensitivity, "sensitivity"},
}

// kindRank returns a cell kind's index in cellKinds.
func kindRank(k experiments.Kind) int {
	for i, c := range cellKinds {
		if c.kind == k {
			return i
		}
	}
	panic(fmt.Sprintf("bench: no cell kind %d in cellKinds", k))
}

func init() {
	register(&workloadDef{
		name:  "paper",
		pass:  spawnPass,
		child: paperChild,
		check: func(_ context.Context, o *options, ps []*passResult) (int, error) {
			if o.size != fullSize {
				return 0, nil // the pinned digest is for paper scale only
			}
			wrong := 0
			for _, p := range ps {
				if p.Outputs["render"].Digest != strings.TrimSpace(paperDigest) {
					wrong++
				}
			}
			return wrong, nil
		},
		summarize: func(ps []*passResult, vals map[string]float64) {
			vals["p50_ms"] = median(pooled(ps, "cell_ms"))
		},
	})
}

// paperBundles synthesizes every single-device bundle the evaluation
// simulates: the Table 2 applications, the bigdata applications and the
// heterogeneous mixes.
func paperBundles(o workload.Options) ([]*workload.Bundle, error) {
	var out []*workload.Bundle
	for _, name := range append(workload.Names(), workload.BigdataNames()...) {
		b, err := workload.Homogeneous(name, o)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	for n := 1; n <= workload.MixCount; n++ {
		b, err := workload.Mix(n, o)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// imageSystems are one system per storage class: SIMD reads from the host
// SSD model, every FlashAbacus system from the flash backbone.
var imageSystems = []core.System{core.SIMD, core.IntraO3}

// paperChild reproduces `abacus-repro -scale 1 -devices 8 -faults
// cardloss` through the experiments layer: set-up (repeated setupReps
// times) synthesizes the bundles and builds every bundle's offloaded
// device image, the prewarm simulates every cell in a seeded order (see
// orderCells), and the render streams the full evaluation into a digest.
func paperChild(ctx context.Context, sp childSpec) (*passResult, error) {
	p := newPassResult()
	tr := newTracer(sp.Traced)
	lanes := make(chan int, simWorkers)
	for i := 1; i <= simWorkers; i++ {
		lanes <- i
	}
	pool := runner.New(simWorkers)

	pass := tr.begin("paper.pass", nil, 0, "")
	var (
		t0               time.Time
		images           *cluster.ImageCache
		setups, acquires []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 = time.Now()
		setup := tr.begin("paper.setup", pass, 0, "")
		opts := workload.DefaultOptions()
		opts.Scale = sp.Size.PaperScale
		bundles, err := paperBundles(opts)
		if err != nil {
			return nil, err
		}
		images = cluster.NewImageCache()
		acquire := time.Now()
		err = pool.EachAll(ctx, len(bundles)*len(imageSystems), func(ctx context.Context, i int) error {
			b, sys := bundles[i/len(imageSystems)], imageSystems[i%len(imageSystems)]
			lane := <-lanes
			defer func() { lanes <- lane }()
			s := tr.begin("cluster.image", setup, lane, b.Name+"/"+sys.String())
			_, err := images.Offloaded(ctx, core.DefaultConfig(sys), b)
			s.end(nil)
			if errors.Is(err, core.ErrUnforkable) {
				return nil // the cells run the plain lifecycle for this bundle
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("image set-up: %w", err)
		}
		acquires = append(acquires, time.Since(acquire).Seconds())
		setup.end(map[string]any{"rep": rep, "images": len(bundles) * len(imageSystems)})
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.Vals["cluster.image_acquire_s"] = median(acquires)
	p.Vals["setup_s"] = median(setups)

	suite := experiments.NewSuiteWithImages(sp.Size.PaperScale, images)
	suite.Workers = simWorkers
	suite.MaxDevices = sp.Size.PaperDevices
	plan, err := faults.Preset(paperFault)
	if err != nil {
		return nil, err
	}
	suite.SetFaultScenarios([]experiments.FaultScenario{{Name: paperFault, Plan: plan}})
	sel, err := experiments.Select("all", sp.Size.PaperDevices, false, true)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range sel {
		ids = append(ids, e.ID)
	}
	cells := suite.CellsFor(ids)
	orderCells(cells, sp.Seed)

	prewarm := tr.begin("experiments.prewarm", pass, 0, "")
	tp := time.Now()
	cellSecs := make([]float64, len(cells))
	err = pool.EachAll(ctx, len(cells), func(ctx context.Context, i int) error {
		lane := <-lanes
		defer func() { lanes <- lane }()
		s := tr.begin("experiments.cell", prewarm, lane, cells[i].String())
		c0 := time.Now()
		res, err := suite.Run(ctx, cells[i])
		cellSecs[i] = time.Since(c0).Seconds()
		if s != nil && res != nil {
			s.end(map[string]any{"kind": cellKinds[kindRank(cells[i].Kind)].name, "read_groups": res.Visor.ReadGroups,
				"write_groups": res.Visor.WriteGroups, "migrated": res.Visor.Migrated})
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	prewarmS := time.Since(tp).Seconds()
	prewarm.end(map[string]any{"cells": len(cells)})

	render := tr.begin("experiments.render", pass, 0, "")
	tr0 := time.Now()
	h := sha256.New()
	cw := &countingWriter{w: h}
	if err := suite.Render(ctx, cw, sel); err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	p.Vals["experiments.render_ms"] = time.Since(tr0).Seconds() * 1000
	render.end(map[string]any{"bytes": cw.n})
	p.Wall = time.Since(t0).Seconds()
	pass.end(nil)

	// Totals over the distinct simulations (a one-card cluster cell shares
	// its single-device cell's result).
	seen := map[*stats.Result]bool{}
	var total stats.Result
	for i, c := range cells {
		res, err := suite.Run(ctx, c)
		if err != nil {
			return nil, err
		}
		p.Vals["experiments.cell_s."+cellKinds[kindRank(c.Kind)].name] += cellSecs[i]
		p.Lists["cell_ms"] = append(p.Lists["cell_ms"], cellSecs[i]*1000)
		if seen[res] {
			continue
		}
		seen[res] = true
		addCounters(&total, res)
	}
	putCounters(p.Vals, &total)
	st := images.Stats()
	p.Vals["cluster.image_hits"] = float64(st.ImageHits)
	p.Vals["cluster.image_misses"] = float64(st.ImageMisses)
	p.Vals["cluster.probe_hits"] = float64(st.ProbeHits)
	p.Vals["cluster.probe_misses"] = float64(st.ProbeMisses)
	groups := total.Visor.ReadGroups + total.Visor.WriteGroups + total.Visor.Migrated
	p.Vals["core.groups_per_host_s"] = float64(groups) / prewarmS
	p.Vals["experiments.prewarm_s"] = prewarmS
	p.Vals["jobs_per_s"] = float64(len(cells)) / prewarmS
	p.Vals["result_bytes"] = float64(cw.n)

	p.Attempted = 1
	digest := fmt.Sprintf("%x", h.Sum(nil))
	p.Outputs = map[string]output{"render": {Digest: digest, Jobs: 1}}
	p.Digest = digest + " " + counterDigest(&total)
	p.Spans = tr.collected()
	return p, nil
}

// orderCells shuffles the cells by seed within each kind and runs the
// kinds longest first. The seed changes which cells run side by side on
// the two workers, but the prewarm always ends on short cells, so a long
// cell left last cannot idle a worker for a seed-dependent stretch.
func orderCells(cells []experiments.Job, seed int64) {
	rand.New(rand.NewPCG(uint64(seed), 0x70617065)).Shuffle(len(cells), func(i, j int) {
		cells[i], cells[j] = cells[j], cells[i]
	})
	sort.SliceStable(cells, func(i, j int) bool { return kindRank(cells[i].Kind) < kindRank(cells[j].Kind) })
}

// addCounters accumulates a run's simulated counters into total.
func addCounters(total, r *stats.Result) {
	total.Makespan += r.Makespan
	total.Visor.ReadGroups += r.Visor.ReadGroups
	total.Visor.WriteGroups += r.Visor.WriteGroups
	total.Visor.FGReclaims += r.Visor.FGReclaims
	total.Visor.Migrated += r.Visor.Migrated
	total.LockConflicts += r.LockConflicts
	total.BGReclaims += r.BGReclaims
	total.Journals += r.Journals
}

// putCounters reports simulated counters as per-layer values.
func putCounters(vals map[string]float64, r *stats.Result) {
	vals["core.sim_makespan_s"] = float64(r.Makespan) / 1e9
	vals["flashvisor.read_groups"] = float64(r.Visor.ReadGroups)
	vals["flashvisor.write_groups"] = float64(r.Visor.WriteGroups)
	vals["flashvisor.fg_reclaims"] = float64(r.Visor.FGReclaims)
	vals["flashvisor.migrated"] = float64(r.Visor.Migrated)
	vals["flashvisor.lock_conflicts"] = float64(r.LockConflicts)
	vals["storengine.bg_reclaims"] = float64(r.BGReclaims)
	vals["storengine.journals"] = float64(r.Journals)
}

// counterDigest spells the simulated counters for cross-pass comparison.
func counterDigest(r *stats.Result) string {
	return fmt.Sprintf("makespan=%d read=%d write=%d fg=%d migrated=%d locks=%d bg=%d journals=%d",
		r.Makespan, r.Visor.ReadGroups, r.Visor.WriteGroups, r.Visor.FGReclaims, r.Visor.Migrated,
		r.LockConflicts, r.BGReclaims, r.Journals)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// pooled concatenates one sample list across passes.
func pooled(ps []*passResult, name string) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.Lists[name]...)
	}
	return out
}
