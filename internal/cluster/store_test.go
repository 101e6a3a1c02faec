package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/imagestore"
)

// TestImageCacheStoreLevel drives the two-process story on one MemStore: a
// first cache builds and fills the store, a second (fresh, simulating a new
// process) satisfies the same requests by decoding — no builds — and the
// decoded images are deep-equal to the built ones.
func TestImageCacheStoreLevel(t *testing.T) {
	ctx := context.Background()
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)
	st := imagestore.NewMemStore()

	warm := NewImageCache()
	warm.SetStore(st)
	built, err := warm.Offloaded(ctx, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	warm.FlushStore()
	ws := warm.Stats()
	if ws.StoreHits != 0 || ws.StoreMisses == 0 || ws.StorePuts == 0 || ws.StoreErrors != 0 {
		t.Fatalf("cold-process stats off: %+v", ws)
	}
	// Offloaded builds via Populated, so both stages must have been filled.
	if st.Len() != 2 {
		t.Fatalf("store holds %d blobs, want 2 (populated + offloaded)", st.Len())
	}

	fresh := NewImageCache()
	fresh.SetStore(st)
	loaded, err := fresh.Offloaded(ctx, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	fs := fresh.Stats()
	if fs.StoreHits == 0 || fs.StoreMisses != 0 || fs.StoreErrors != 0 {
		t.Fatalf("warm-process stats off: %+v", fs)
	}
	wantData, err := built.Data()
	if err != nil {
		t.Fatal(err)
	}
	gotData, err := loaded.Data()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotData, wantData) {
		t.Fatal("store-loaded image differs from built image")
	}
}

// corruptingStore flips a bit in everything it serves, simulating bit rot
// underneath an otherwise well-behaved store.
type corruptingStore struct {
	inner imagestore.Store
}

func (s corruptingStore) Get(key string) ([]byte, error) {
	blob, err := s.inner.Get(key)
	if err != nil {
		return nil, err
	}
	c := append([]byte(nil), blob...)
	if len(c) > 0 {
		c[len(c)/2] ^= 0x40
	}
	return c, nil
}

func (s corruptingStore) Put(key string, blob []byte) error { return s.inner.Put(key, blob) }

// TestCorruptStoreFallsBack: every Get returns rotted bytes, so decodes
// fail — the cache must rebuild silently and produce run output identical
// to a no-store run.
func TestCorruptStoreFallsBack(t *testing.T) {
	ctx := context.Background()
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)

	// Fill a store, then serve it through the corrupting wrapper.
	mem := imagestore.NewMemStore()
	filler := NewImageCache()
	filler.SetStore(mem)
	if _, err := filler.Offloaded(ctx, cfg, b); err != nil {
		t.Fatal(err)
	}
	filler.FlushStore()

	c := NewImageCache()
	c.SetStore(corruptingStore{inner: mem})
	got, err := RunSingleCached(ctx, cfg, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.StoreErrors == 0 || s.StoreHits != 0 {
		t.Fatalf("corrupt store was not detected: %+v", s)
	}
	want, err := RunSingleCached(ctx, cfg, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run over corrupt store differs from uncached run")
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
	nilCache.FlushStore() // must not panic
}

// brokenStore fails every round-trip with a transport error (not
// ErrNotFound), simulating a store whose backing device has gone away.
// It counts calls so degradation is observable as silence.
type brokenStore struct {
	mu    sync.Mutex
	calls int
}

func (s *brokenStore) bump() error {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return errors.New("backing device gone")
}

func (s *brokenStore) Get(key string) ([]byte, error)    { return nil, s.bump() }
func (s *brokenStore) Put(key string, blob []byte) error { return s.bump() }

func (s *brokenStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// TestStoreDegradesToCacheOnly: a store failing every I/O must be demoted
// after storeFailLimit consecutive failures — later requests run
// memory-only (no store calls at all) and still succeed.
func TestStoreDegradesToCacheOnly(t *testing.T) {
	ctx := context.Background()
	cfg := core.DefaultConfig(core.IntraO3)
	st := &brokenStore{}
	c := NewImageCache()
	c.SetStore(st)

	// Distinct keys, so each miss is a fresh store round-trip. Every Get
	// fails and every async fill's Put fails, so the failure budget drains
	// within the first few requests.
	for i := 0; i < storeFailLimit+2; i++ {
		if _, err := c.Populated(ctx, cfg, testBundle(t, int64(4096<<i))); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushStore()
	s := c.Stats()
	if !s.StoreDegraded {
		t.Fatalf("store not degraded after %d failing requests: %+v", storeFailLimit+2, s)
	}
	if s.StoreErrors < storeFailLimit {
		t.Fatalf("StoreErrors = %d, want >= %d", s.StoreErrors, storeFailLimit)
	}

	// Once demoted, the store must not be consulted again.
	before := st.count()
	if _, err := c.Populated(ctx, cfg, testBundle(t, 4096<<6)); err != nil {
		t.Fatal(err)
	}
	c.FlushStore()
	if after := st.count(); after != before {
		t.Fatalf("degraded cache still called the store: %d -> %d calls", before, after)
	}

	// Re-attaching a (repaired) store clears the demotion.
	c.SetStore(imagestore.NewMemStore())
	if s := c.Stats(); s.StoreDegraded {
		t.Fatal("SetStore did not clear the degradation")
	}
	if _, err := c.Populated(ctx, cfg, testBundle(t, 4096<<7)); err != nil {
		t.Fatal(err)
	}
	c.FlushStore()
	if s := c.Stats(); s.StorePuts == 0 {
		t.Fatalf("repaired store received no fills: %+v", s)
	}
}

// blockingStore parks every Put until released, simulating slow store
// I/O still in flight when a run is cancelled.
type blockingStore struct {
	inner   imagestore.Store
	started chan struct{}
	release chan struct{}
}

func (s *blockingStore) Get(key string) ([]byte, error) { return s.inner.Get(key) }

func (s *blockingStore) Put(key string, blob []byte) error {
	s.started <- struct{}{}
	<-s.release
	return s.inner.Put(key, blob)
}

// TestFlushStoreDrainsCancelledRun: cancelling the run's context must not
// abandon in-flight async store fills — FlushStore still blocks until
// every fill lands, and the fills are accounted, so no goroutine outlives
// the flush and no image is silently dropped on the floor.
func TestFlushStoreDrainsCancelledRun(t *testing.T) {
	mem := imagestore.NewMemStore()
	st := &blockingStore{inner: mem, started: make(chan struct{}, 4), release: make(chan struct{})}
	c := NewImageCache()
	c.SetStore(st)

	ctx, cancel := context.WithCancel(context.Background())
	b := testBundle(t, 4096)
	cfg := core.DefaultConfig(core.IntraO3)
	if _, err := c.Populated(ctx, cfg, b); err != nil {
		t.Fatal(err)
	}
	<-st.started // the async fill is in flight
	cancel()     // the run is over; the fill must not be orphaned

	flushed := make(chan struct{})
	go func() {
		c.FlushStore()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("FlushStore returned while a fill was still blocked")
	case <-time.After(20 * time.Millisecond):
	}

	close(st.release)
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("FlushStore did not drain the cancelled run's fill")
	}
	if s := c.Stats(); s.StorePuts != 1 || mem.Len() != 1 {
		t.Fatalf("fill did not land: %+v, store holds %d blobs", s, mem.Len())
	}
}
