// Image and probe caching for the cluster layer.
//
// Building a card is a three-step lifecycle — format the FTL, populate the
// input ranges, offload the kernel tables — and before this cache every
// suite cell, cluster card, and work-steal probe walked it from scratch.
// The cache captures the lifecycle's result once per distinct
// (core.BuildKey, bundle) pair as an immutable core.Image and hands out
// copy-on-write forks, and it memoizes work-steal probe runs — a full
// standalone device simulation per (card class, kernel instance) — across
// every dispatch that shares the class and bundle. Both layers are
// single-flight: concurrent requesters for the same key share one build.
package cluster

import (
	"context"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// imageStage distinguishes the two capture points an image can be taken at.
type imageStage int

const (
	// stagePopulated: formatted + populated, nothing offloaded. Cluster
	// cards and probes fork this and offload their own app subsets.
	stagePopulated imageStage = iota
	// stageOffloaded: populated + the bundle's full app set offloaded. The
	// single-device run path forks this and goes straight to Run.
	stageOffloaded
)

// imageKey identifies one cached image: the configuration fields that shape
// populated device state, the bundle's content key, and the capture stage.
type imageKey struct {
	build  core.BuildKey
	bundle string
	stage  imageStage
}

// probeKey identifies one memoized work-steal probe: the full card
// configuration (a probe is a complete simulation, so every knob matters),
// the bundle, and the kernel instance.
type probeKey struct {
	cfg    core.Config
	bundle string
	inst   string
}

// Cache bounds: generous enough that a full evaluation suite (every
// bundle × both capture stages × both storage classes, plus every probe
// of the cluster and topology sweeps) never evicts, small enough that a
// long-lived process feeding arbitrary bundles through the shared public
// cache stays bounded. Eviction is oldest-insertion-first.
const (
	maxCachedImages = 512
	maxCachedProbes = 8192
)

// ImageCache shares device images and work-steal probe results across runs.
// A nil *ImageCache is valid and disables all caching; NewImageCache
// builds a working one. Safe for concurrent use.
type ImageCache struct {
	images *runner.Cache[imageKey, *core.Image]
	probes *runner.Cache[probeKey, *stats.Result]
}

// CacheStats is a point-in-time snapshot of cache behavior.
type CacheStats struct {
	ImageHits, ImageMisses, ImageEvictions int64
	ProbeHits, ProbeMisses, ProbeEvictions int64
}

// Stats returns current counters. Nil-safe, like every read path.
func (c *ImageCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	im, pr := c.images.Stats(), c.probes.Stats()
	return CacheStats{
		ImageHits: im.Hits, ImageMisses: im.Misses, ImageEvictions: im.Evictions,
		ProbeHits: pr.Hits, ProbeMisses: pr.Misses, ProbeEvictions: pr.Evictions,
	}
}

// NewImageCache returns an empty cache.
func NewImageCache() *ImageCache {
	return &ImageCache{
		images: runner.NewCache[imageKey, *core.Image](maxCachedImages),
		probes: runner.NewCache[probeKey, *stats.Result](maxCachedProbes),
	}
}

// bundleID returns the bundle's cache identity, or "" when the bundle
// carries no content key (hand-assembled): such bundles are never cached,
// because nothing ties their pointer to their content across calls.
func bundleID(b *workload.Bundle) string { return b.Key }

// Populated returns the image of a card formatted and populated for bundle
// b under cfg, building it on first request. Configurations that differ
// only in run-time knobs (governor within the same storage class, worker
// count, series collection, ...) share one image; see core.BuildKey.
func (c *ImageCache) Populated(ctx context.Context, cfg core.Config, b *workload.Bundle) (*core.Image, error) {
	return c.image(ctx, cfg, b, stagePopulated)
}

// Offloaded returns the image of a card formatted, populated, and loaded
// with the bundle's full application set — the single-device fast path.
func (c *ImageCache) Offloaded(ctx context.Context, cfg core.Config, b *workload.Bundle) (*core.Image, error) {
	return c.image(ctx, cfg, b, stageOffloaded)
}

func (c *ImageCache) image(ctx context.Context, cfg core.Config, b *workload.Bundle, stage imageStage) (*core.Image, error) {
	id := bundleID(b)
	if c == nil || id == "" {
		return buildImage(ctx, c, cfg, b, stage)
	}
	key := imageKey{build: cfg.BuildKey(), bundle: id, stage: stage}
	return c.images.Await(ctx, key,
		func(ctx context.Context) (*core.Image, error) { return buildImage(ctx, c, cfg, b, stage) })
}

// buildImage walks the capture lifecycle once. The offloaded stage builds
// on the populated stage's image — forking it, offloading the full app set,
// and re-snapshotting — so the two stages share mapping-table segments.
func buildImage(ctx context.Context, c *ImageCache, cfg core.Config, b *workload.Bundle, stage imageStage) (*core.Image, error) {
	var n *Node
	if stage == stageOffloaded {
		pop, err := c.Populated(ctx, cfg, b)
		if err != nil {
			return nil, err
		}
		d, err := pop.Fork(cfg)
		if err != nil {
			return nil, err
		}
		n = &Node{dev: d}
		if err := n.Offload(b.Apps); err != nil {
			return nil, err
		}
	} else {
		var err error
		if n, err = NewNode(0, cfg); err != nil {
			return nil, err
		}
		if err := n.Populate(b.Populate); err != nil {
			return nil, err
		}
	}
	return n.Device().Snapshot()
}

// Probe returns the memoized standalone-instance probe run for (cfg, b,
// inst), computing it via run on first request. Probe results feed only
// the work-steal claim loop, which reads makespans; the simulation is
// deterministic, so a memoized result is identical to a recomputed one.
func (c *ImageCache) Probe(ctx context.Context, cfg core.Config, b *workload.Bundle, inst string,
	run func(context.Context) (*stats.Result, error)) (*stats.Result, error) {
	id := bundleID(b)
	if c == nil || id == "" {
		return run(ctx)
	}
	key := probeKey{cfg: cfg, bundle: id, inst: inst}
	return c.probes.Await(ctx, key, run)
}
