package runner

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
)

// computeSafe runs compute, converting a panic into a *PanicError — a
// panicking compute must still settle the flight, or every waiter on the
// slot would block until its context died.
func computeSafe[T any](ctx context.Context, compute func(context.Context) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return compute(ctx)
}

// flight is one single-flight cache slot: the first requester computes the
// value, everyone else waits on ready.
type flight[T any] struct {
	ready chan struct{}
	// starterDone is the starter's ctx.Done(). Once it fires on a flight
	// that has not finished, the starter is cancelled but still inside
	// compute — possibly wedged — so a live waiter takes the slot over.
	starterDone <-chan struct{}
	val         T
	err         error
}

// done reports whether the flight's computation has finished (successfully
// or not).
func (f *flight[T]) done() bool {
	select {
	case <-f.ready:
		return true
	default:
		return false
	}
}

// Cache is a size-bounded single-flight map: the one cache primitive the
// reproduction's caches (experiment cells, device images, work-steal
// probes) are built on. The first requester of a key computes its value
// while later requesters wait for it; entries are evicted
// oldest-insertion-first past the bound. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	limit int

	mu      sync.Mutex
	entries map[K]*flight[V]
	order   []K // insertion order, oldest first

	hits, misses, evictions int64
}

// CacheStats is a point-in-time snapshot of a Cache. A hit is a request
// that found a flight (finished or shared in-flight), a miss an insertion,
// an eviction a capacity eviction; Len is the current entry count.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Len                     int
}

// NewCache returns an empty cache holding at most limit settled entries.
func NewCache[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, entries: map[K]*flight[V]{}}
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: len(c.entries)}
}

// Await returns key's value, computing it with compute on first request;
// concurrent requests for the key share that one computation. Nothing is
// cached when compute fails only because its own context was cancelled
// (live waiters recompute rather than inherit it) or panics (waiters get
// the *PanicError, the next request recomputes). A live waiter on a
// flight whose starter's context is done but whose compute has not
// returned evicts it and computes the value itself, so a computation that
// ignores cancellation blocks no one. An eviction only removes the flight
// it judged, so a late starter never clobbers its replacement.
func (c *Cache[K, V]) Await(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		f := c.entries[key]
		if f == nil {
			f = &flight[V]{ready: make(chan struct{}), starterDone: ctx.Done()}
			c.insert(key, f)
			c.mu.Unlock()
			f.val, f.err = computeSafe(ctx, compute)
			var pe *PanicError
			if f.err != nil && (IsCancellation(f.err) || errors.As(f.err, &pe)) {
				// Evict before close so retrying waiters find the slot empty.
				c.drop(key, f)
			}
			close(f.ready)
			return f.val, f.err
		}
		c.hits++
		c.mu.Unlock()
		// Prefer a finished flight over noticing our own cancellation:
		// when both channels are ready the cached result must win, or a
		// cancelled parallel run would drop tables a sequential run had
		// already printed.
		if !f.done() {
			select {
			case <-f.ready:
			case <-ctx.Done():
				return zero, ctx.Err()
			case <-f.starterDone:
				if ctx.Err() != nil {
					return zero, ctx.Err()
				}
				if !f.done() {
					c.drop(key, f)
					continue
				}
			}
		}
		if f.err != nil && IsCancellation(f.err) && ctx.Err() == nil {
			continue // starter was cancelled, not us: recompute
		}
		return f.val, f.err
	}
}

// insert caches f under key and enforces the bound. Called with c.mu held
// and key absent, so order stays duplicate-free.
func (c *Cache[K, V]) insert(key K, f *flight[V]) {
	c.misses++
	c.entries[key] = f
	c.order = append(c.order, key)
	// Evict oldest-first, skipping the just-inserted key and any flight
	// still being computed: evicting an in-flight entry would break
	// single-flight — its waiters keep waiting on the orphaned flight while
	// a new requester starts a duplicate computation — so the cache instead
	// exceeds its bound transiently while more than limit are in the air.
	for len(c.entries) > c.limit {
		victim := -1
		for i, k := range c.order {
			if k != key && c.entries[k].done() {
				victim = i
				break
			}
		}
		if victim < 0 {
			return // everything evictable is in flight; retry on next insert
		}
		delete(c.entries, c.order[victim])
		c.order = append(c.order[:victim], c.order[victim+1:]...)
		c.evictions++
	}
}

// drop removes key's entry if it is still f.
func (c *Cache[K, V]) drop(key K, f *flight[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != f {
		return
	}
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
