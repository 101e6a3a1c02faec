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
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/imagestore"
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
//
// With SetStore, the cache gains a second, persistent level: an image miss
// consults the store before building (a decoded blob is as good as a
// build), and a fresh build is encoded and written back asynchronously —
// the requester never waits on store I/O it does not benefit from. Corrupt
// or stale store entries are treated as misses; the single-flight
// discipline spans both levels, so concurrent requesters for one key share
// one load-or-build regardless of where it is satisfied from.
type ImageCache struct {
	images *runner.Cache[imageKey, *core.Image]
	probes *runner.Cache[probeKey, *stats.Result]

	// mu guards the store level below.
	mu      sync.Mutex
	store   imagestore.Store
	storeWG sync.WaitGroup
	stStats struct{ hits, misses, puts, errors int64 }

	// stFails counts consecutive store I/O failures; at storeFailLimit
	// the store is demoted (stDown) and the cache runs cache-only — a
	// sick store must not keep charging every miss an error round-trip.
	stFails int
	stDown  bool
}

// CacheStats is a point-in-time snapshot of cache behavior, per level.
// Store fills (Puts) are asynchronous, so read them after FlushStore when
// exactness matters.
type CacheStats struct {
	ImageHits, ImageMisses, ImageEvictions int64
	ProbeHits, ProbeMisses, ProbeEvictions int64
	StoreHits, StoreMisses                 int64 // persistent level, when attached
	StorePuts, StoreErrors                 int64 // async fills; decode/encode/IO failures

	// StoreDegraded reports the persistent level was demoted after
	// storeFailLimit consecutive I/O failures: the cache keeps running
	// memory-only until SetStore re-attaches a store.
	StoreDegraded bool
}

// Stats returns current counters. Nil-safe, like every read path.
func (c *ImageCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	im, pr := c.images.Stats(), c.probes.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		ImageHits: im.Hits, ImageMisses: im.Misses, ImageEvictions: im.Evictions,
		ProbeHits: pr.Hits, ProbeMisses: pr.Misses, ProbeEvictions: pr.Evictions,
		StoreHits: c.stStats.hits, StoreMisses: c.stStats.misses,
		StorePuts: c.stStats.puts, StoreErrors: c.stStats.errors,
		StoreDegraded: c.stDown,
	}
}

// SetStore attaches (or, with nil, detaches) the persistent second level.
// Call it before handing the cache out; it does not retro-fill. Attaching
// clears a previous degradation, so a fresh (or repaired) store starts
// with a clean failure budget.
func (c *ImageCache) SetStore(st imagestore.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
	c.stFails = 0
	c.stDown = false
}

// FlushStore blocks until every asynchronous store fill issued so far has
// completed — the boundary a process must cross before its store is
// guaranteed warm for the next process.
func (c *ImageCache) FlushStore() {
	if c == nil {
		return
	}
	c.storeWG.Wait()
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
		func(ctx context.Context) (*core.Image, error) { return c.loadOrBuild(ctx, key, cfg, b, stage) })
}

// stageName names a capture stage inside the store fingerprint.
func (s imageStage) stageName() string {
	if s == stageOffloaded {
		return "offloaded"
	}
	return "populated"
}

// loadOrBuild is the memory-level miss path: consult the persistent store
// first, fall back to the build lifecycle, and fill the store with what the
// lifecycle produced. It runs inside the key's single flight, so at most
// one goroutine per key is in here.
func (c *ImageCache) loadOrBuild(ctx context.Context, key imageKey, cfg core.Config, b *workload.Bundle, stage imageStage) (*core.Image, error) {
	st := c.activeStore()
	if st == nil {
		return buildImage(ctx, c, cfg, b, stage)
	}
	fp := imagestore.Fingerprint(key.build, key.bundle, stage.stageName())
	if blob, err := st.Get(fp); err == nil {
		img, derr := imagestore.Decode(cfg, blob)
		if derr == nil {
			c.storeOK()
			c.countStore(func(s *storeCounters) { s.hits++ })
			return img, nil
		}
		// Corrupt, truncated, or stale-version blob: a fresh build both
		// recovers and overwrites the bad entry. Bad bytes, not a sick
		// store, so this does not charge the degradation budget.
		c.countStore(func(s *storeCounters) { s.errors++ })
	} else if errors.Is(err, imagestore.ErrNotFound) {
		c.storeOK()
		c.countStore(func(s *storeCounters) { s.misses++ })
	} else {
		c.storeFailure()
	}
	img, err := buildImage(ctx, c, cfg, b, stage)
	if err != nil {
		return nil, err
	}
	// Fill asynchronously: encode+write costs the next process a rebuild if
	// skipped, but costs this requester latency if awaited. The goroutine
	// holds no context — a cancelled run's fills still land (the work is
	// bounded), and FlushStore drains them before the process exits.
	c.storeWG.Add(1)
	go func() {
		defer c.storeWG.Done()
		blob, err := imagestore.Encode(img)
		if err != nil {
			c.countStore(func(s *storeCounters) { s.errors++ })
			return
		}
		if err := st.Put(fp, blob); err != nil {
			c.storeFailure()
			return
		}
		c.storeOK()
		c.countStore(func(s *storeCounters) { s.puts++ })
	}()
	return img, nil
}

// activeStore returns the attached store, or nil when none is attached
// or the store has been demoted to cache-only.
func (c *ImageCache) activeStore() imagestore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stDown {
		return nil
	}
	return c.store
}

// storeFailure charges one store I/O failure against the degradation
// budget; the storeFailLimit'th consecutive failure demotes the store.
func (c *ImageCache) storeFailure() {
	c.mu.Lock()
	c.stStats.errors++
	c.stFails++
	if c.stFails >= storeFailLimit {
		c.stDown = true
	}
	c.mu.Unlock()
}

// storeOK resets the consecutive-failure budget after any successful
// store round-trip (hit, clean miss, or landed fill).
func (c *ImageCache) storeOK() {
	c.mu.Lock()
	c.stFails = 0
	c.mu.Unlock()
}

// storeFailLimit is the consecutive store I/O failures tolerated before
// the persistent level is demoted and the cache degrades to memory-only.
const storeFailLimit = 3

// storeCounters aliases the anonymous counter struct for countStore.
type storeCounters = struct{ hits, misses, puts, errors int64 }

func (c *ImageCache) countStore(f func(*storeCounters)) {
	c.mu.Lock()
	f(&c.stStats)
	c.mu.Unlock()
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
