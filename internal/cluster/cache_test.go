package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kdt"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testBundle(t *testing.T, scale int64) *workload.Bundle {
	t.Helper()
	o := workload.DefaultOptions()
	o.Scale = scale
	b, err := workload.Mix(1, o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestImageCacheSingleFlight races many goroutines at one image key: they
// must all receive the same image (one build), and the cache must be safe
// under -race.
func TestImageCacheSingleFlight(t *testing.T) {
	c := NewImageCache()
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)

	const goroutines = 16
	imgs := make([]*core.Image, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			img, err := c.Populated(context.Background(), cfg, b)
			if err != nil {
				t.Error(err)
				return
			}
			imgs[g] = img
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if imgs[g] != imgs[0] {
			t.Fatalf("goroutine %d got a different image: single-flight broken", g)
		}
	}
}

// TestImageSharedAcrossGovernors pins the build-key sharing rule: the four
// FlashAbacus governors fork one image, the SIMD baseline gets its own.
func TestImageSharedAcrossGovernors(t *testing.T) {
	c := NewImageCache()
	b := testBundle(t, 4096)
	ctx := context.Background()
	var fa []*core.Image
	for _, sys := range core.FlashAbacusSystems {
		img, err := c.Populated(ctx, core.DefaultConfig(sys), b)
		if err != nil {
			t.Fatal(err)
		}
		fa = append(fa, img)
	}
	for i := 1; i < len(fa); i++ {
		if fa[i] != fa[0] {
			t.Errorf("governor %s does not share the FlashAbacus image", core.FlashAbacusSystems[i])
		}
	}
	simd, err := c.Populated(ctx, core.DefaultConfig(core.SIMD), b)
	if err != nil {
		t.Fatal(err)
	}
	if simd == fa[0] {
		t.Error("SIMD shares the FlashAbacus image despite routing populate elsewhere")
	}
}

// TestProbeMemoized proves the work-steal probe satellite: one simulation
// per (config, bundle, instance), shared by every later dispatch.
func TestProbeMemoized(t *testing.T) {
	c := NewImageCache()
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)
	var runs int32
	run := func(context.Context) (*stats.Result, error) {
		atomic.AddInt32(&runs, 1)
		return &stats.Result{Makespan: 42}, nil
	}
	for i := 0; i < 3; i++ {
		res, err := c.Probe(context.Background(), cfg, b, "ATAX#0", run)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != 42 {
			t.Fatal("wrong memoized result")
		}
	}
	if runs != 1 {
		t.Errorf("probe simulated %d times, want 1", runs)
	}
	// A different instance (or config) is its own probe.
	if _, err := c.Probe(context.Background(), cfg, b, "ATAX#1", run); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Workers = 3
	if _, err := c.Probe(context.Background(), other, b, "ATAX#0", run); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("distinct probe keys simulated %d times, want 3", runs)
	}
}

// TestUnkeyedBundleBypassesCache: hand-assembled bundles (no content key)
// must never be cached — nothing ties their pointer to their content.
func TestUnkeyedBundleBypassesCache(t *testing.T) {
	c := NewImageCache()
	b := testBundle(t, 4096)
	b.Key = ""
	cfg := core.DefaultConfig(core.IntraO3)
	a1, err := c.Populated(context.Background(), cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Populated(context.Background(), cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("unkeyed bundle was cached")
	}
	var runs int32
	run := func(context.Context) (*stats.Result, error) {
		atomic.AddInt32(&runs, 1)
		return &stats.Result{}, nil
	}
	c.Probe(context.Background(), cfg, b, "x#0", run)
	c.Probe(context.Background(), cfg, b, "x#0", run)
	if runs != 2 {
		t.Errorf("unkeyed probe memoized (%d runs)", runs)
	}
}

// TestProbeCacheBounded: the shared public cache lives for the process, so
// arbitrary key churn must not grow it without bound.
func TestProbeCacheBounded(t *testing.T) {
	c := NewImageCache()
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)
	run := func(context.Context) (*stats.Result, error) { return &stats.Result{}, nil }
	for i := 0; i < maxCachedProbes+100; i++ {
		if _, err := c.Probe(context.Background(), cfg, b, fmt.Sprintf("inst#%d", i), run); err != nil {
			t.Fatal(err)
		}
	}
	n := c.probes.Stats().Len
	if n > maxCachedProbes {
		t.Errorf("probe cache grew to %d entries, cap %d", n, maxCachedProbes)
	}
}

// tinyGeoConfig returns a config over a minimal flash geometry, so a few
// repeated populates exhaust the free pool and force foreground reclaims
// during setup.
func tinyGeoConfig() core.Config {
	cfg := core.DefaultConfig(core.IntraO3)
	cfg.Flash.PackagesPerCh = 1
	cfg.Flash.DiesPerPkg = 1
	cfg.Flash.BlocksPerDie = 8
	cfg.Flash.PagesPerBlock = 8
	return cfg
}

// TestUnforkablePopulateFallsBack: a bundle whose populate triggers
// foreground reclaims leaves device state an image cannot capture (visor
// counters, erase counts, die timing). The cached path must detect that,
// refuse the snapshot, and fall back to the plain lifecycle with an
// identical result.
func TestUnforkablePopulateFallsBack(t *testing.T) {
	cfg := tinyGeoConfig()
	n, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	logical := n.Device().Visor().FTL.LogicalBytes()
	full := workload.Range{Addr: 0, Bytes: logical}
	// A compute-only app, so the tiny logical space only has to absorb the
	// populate churn, not kernel data sections.
	tab := &kdt.Table{
		Name:     "spin",
		Sections: kdt.DefaultSections(128, 0),
		Microblocks: []kdt.Microblock{{Screens: []kdt.Screen{{Ops: []kdt.Op{
			{Kind: kdt.OpCompute, Instr: 10000, MulMilli: 150, LdStMilli: 300},
		}}}}},
	}
	b := &workload.Bundle{
		Name: "churn",
		Key:  "test/unforkable-churn", // keyed, so the cached path engages
		// Re-populating the full logical space invalidates every mapping
		// and allocates fresh groups until the pool runs dry mid-setup.
		Populate: []workload.Range{full, full, full},
		Apps:     []workload.App{{Name: "spin", Tables: []*kdt.Table{tab}}},
	}

	// The bundle really is unforkable: populate leaves reclaim state.
	probe, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Populate(b.Populate); err != nil {
		t.Fatal(err)
	}
	if probe.Device().Visor().Stats().FGReclaims == 0 {
		t.Fatal("fixture did not trigger foreground reclaims; tighten the geometry")
	}
	if _, err := probe.Device().Snapshot(); !errors.Is(err, core.ErrUnforkable) {
		t.Fatalf("snapshot of reclaimed device: err = %v, want ErrUnforkable", err)
	}

	want, err := RunSingle(context.Background(), cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSingleCached(context.Background(), cfg, b, NewImageCache())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("unforkable fallback diverged from the plain lifecycle")
	}
}

// TestCachedClusterRunByteIdentical pins the whole point of the cache: a
// topology work-steal dispatch with image forks and memoized probes equals
// the uncached dispatch field for field — twice, so the second (fully
// cache-hot) dispatch is covered too.
func TestCachedClusterRunByteIdentical(t *testing.T) {
	b := testBundle(t, 2048)
	topo, err := Preset("2sw-skew", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.IntraO3)
	want, err := Run(context.Background(), cfg, b, Options{Policy: WorkSteal, Workers: 1, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewImageCache()
	for i := 0; i < 2; i++ {
		got, err := Run(context.Background(), cfg, b, Options{Policy: WorkSteal, Workers: 1, Topology: topo, Images: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cached dispatch %d diverged from uncached", i)
		}
	}
}

// TestCacheStatsCounters pins the memory-level hit/miss accounting.
func TestCacheStatsCounters(t *testing.T) {
	ctx := context.Background()
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)
	c := NewImageCache()
	if _, err := c.Populated(ctx, cfg, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Populated(ctx, cfg, b); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.ImageMisses != 1 || s.ImageHits != 3 {
		t.Fatalf("stats %+v, want 1 miss and 3 hits", s)
	}
	var nilCache *ImageCache
	if nilCache.Stats() != (CacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
}
