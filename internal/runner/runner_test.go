package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCollectOrderDeterministic(t *testing.T) {
	const n = 64
	p := New(8)
	// Early jobs sleep longest so completion order inverts index order.
	out, err := Collect(context.Background(), p, n, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len(out) = %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestBoundedParallelism(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	p := New(workers)
	err := p.Each(context.Background(), 24, func(context.Context, int) error {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", got, workers)
	}
}

func TestFirstErrorWins(t *testing.T) {
	sentinel := errors.New("job seven exploded")
	p := New(4)
	err := p.Each(context.Background(), 32, func(ctx context.Context, i int) error {
		if i == 7 {
			return sentinel
		}
		// Later jobs linger so some are still in flight at failure time.
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func TestRealErrorOutranksCancellation(t *testing.T) {
	// Every job fails; whichever failures were dispatched before the
	// fail-fast cancellation landed, Each must report one of the jobs'
	// own errors — never the cancellation noise the failure caused.
	p := New(8)
	err := p.Each(context.Background(), 16, func(_ context.Context, i int) error {
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil || IsCancellation(err) || !strings.HasPrefix(err.Error(), "job ") {
		t.Fatalf("err = %v, want a job's own error", err)
	}
}

func TestErrorCancelsRemainingJobs(t *testing.T) {
	var started int64
	sentinel := errors.New("boom")
	p := New(2)
	err := p.Each(context.Background(), 1000, func(ctx context.Context, i int) error {
		atomic.AddInt64(&started, 1)
		if i == 0 {
			return sentinel
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if n := atomic.LoadInt64(&started); n >= 1000 {
		t.Errorf("all %d jobs ran despite early failure", n)
	}
}

func TestEachAllRunsEverythingDespiteErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int64
		err := New(workers).EachAll(context.Background(), 50, func(_ context.Context, i int) error {
			atomic.AddInt64(&ran, 1)
			if i%10 == 3 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3's error", workers, err)
		}
		if ran != 50 {
			t.Fatalf("workers=%d: ran %d jobs, want all 50", workers, ran)
		}
	}
}

func TestEachAllPrefersRealErrorOverCancellation(t *testing.T) {
	sentinel := errors.New("real failure")
	for _, workers := range []int{1, 4} {
		err := New(workers).EachAll(context.Background(), 10, func(_ context.Context, i int) error {
			switch i {
			case 2:
				// A job-local timeout classifies as cancellation…
				return fmt.Errorf("job timeout: %w", context.DeadlineExceeded)
			case 5:
				// …and must not outrank a genuine failure, in either path.
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want the real failure", workers, err)
		}
	}
}

func TestEachAllStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	err := New(2).EachAll(ctx, 1000, func(jctx context.Context, i int) error {
		if atomic.AddInt64(&ran, 1) == 2 {
			cancel()
		}
		select {
		case <-jctx.Done():
			return jctx.Err()
		case <-time.After(time.Millisecond):
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 1000 {
		t.Errorf("all %d jobs ran despite cancellation", n)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	for _, workers := range []int{1, 4} {
		err := New(workers).Each(ctx, 10, func(context.Context, int) error {
			atomic.AddInt64(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Errorf("%d jobs ran under a cancelled context", ran)
	}
}

func TestCancelStopsInFlightJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- New(2).Each(ctx, 100, func(jctx context.Context, i int) error {
			if atomic.AddInt64(&started, 1) == 2 {
				close(release)
			}
			<-jctx.Done()
			return jctx.Err()
		})
	}()
	<-release
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not stop after cancellation")
	}
	if n := atomic.LoadInt64(&started); n >= 100 {
		t.Errorf("all %d jobs started despite cancellation", n)
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	var ran int64
	sentinel := errors.New("stop here")
	err := New(1).Each(context.Background(), 100, func(_ context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if ran != 4 {
		t.Errorf("ran %d jobs, want 4 (stop right after the failure)", ran)
	}
}

func TestEmptyAndDefaults(t *testing.T) {
	if err := New(4).Each(context.Background(), 0, nil); err != nil {
		t.Errorf("0 jobs: %v", err)
	}
	if w := New(0).Workers(); w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
	if w := New(-3).Workers(); w < 1 {
		t.Errorf("negative workers clamped to %d, want >= 1", w)
	}
}

func TestIsCancellation(t *testing.T) {
	if !IsCancellation(context.Canceled) || !IsCancellation(fmt.Errorf("wrap: %w", context.DeadlineExceeded)) {
		t.Error("cancellation errors not recognized")
	}
	if IsCancellation(errors.New("boom")) || IsCancellation(nil) {
		t.Error("non-cancellation misclassified")
	}
}

// TestPanicBecomesError: a panicking job surfaces as a *PanicError with
// the panic value and stack; the pool survives and sibling jobs run.
// This is the isolation the serving layer leans on — one broken cell
// fails one job, never the process.
func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		err := New(workers).EachAll(context.Background(), 6, func(ctx context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 2 {
				panic("cell exploded")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "cell exploded" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error lost its value or stack: %v", workers, pe)
		}
		if got := atomic.LoadInt32(&ran); got != 6 {
			t.Fatalf("workers=%d: %d jobs ran, want all 6 despite the panic", workers, got)
		}
	}
}

// TestAwaitPanicSettlesWaitersAndEvicts: a panicking compute must close
// the flight (waiters get the error instead of hanging) and evict the
// slot so the next request recomputes.
func TestAwaitPanicSettlesWaitersAndEvicts(t *testing.T) {
	c := NewCache[int, int](4)
	var calls int32
	compute := func(ctx context.Context) (int, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			panic("first compute dies")
		}
		return 42, nil
	}

	// Starter and a concurrent waiter: both must see the panic error.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = c.Await(context.Background(), 1, compute)
		}(k)
	}
	wg.Wait()
	var panics, oks int
	for _, err := range errs {
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			panics++
		case err == nil:
			oks++
		default:
			t.Fatalf("unexpected err %v", err)
		}
	}
	// The starter always sees the panic; the waiter either raced in
	// behind it (panic) or found the evicted slot and recomputed (ok).
	if panics < 1 {
		t.Fatalf("panic error reached %d goroutines, want >= 1 (oks %d)", panics, oks)
	}
	// The slot was evicted, so a fresh request recomputes and succeeds.
	v, err := c.Await(context.Background(), 1, compute)
	if err != nil || v != 42 {
		t.Fatalf("recompute after panic eviction = %d, %v; want 42, nil", v, err)
	}
}

// TestEvictionSkipsInFlight pins the eviction rule: capacity pressure must
// never evict a flight that is still computing — its waiters would be
// orphaned and a new requester would duplicate the computation — even if
// that means transiently exceeding the bound.
func TestEvictionSkipsInFlight(t *testing.T) {
	c := NewCache[int, int](1)
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Await(ctx, 1, func(context.Context) (int, error) {
			close(started)
			<-release
			return 100, nil
		})
		done <- err
	}()
	<-started

	// A second key at limit 1: the oldest entry is in flight, so it must
	// survive and the cache must run over its bound instead.
	if _, err := c.Await(ctx, 2, func(context.Context) (int, error) { return 200, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Len != 2 || st.Evictions != 0 {
		t.Fatalf("len %d evictions %d, want 2 and 0 (bound exceeded, nothing dropped)", st.Len, st.Evictions)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The survivor serves its waiters from cache.
	v, err := c.Await(ctx, 1, func(context.Context) (int, error) {
		t.Error("recompute after spurious eviction")
		return -1, nil
	})
	if err != nil || v != 100 {
		t.Fatalf("Await(1) = %d, %v; want 100", v, err)
	}
	// With every flight settled, the next insertion restores the bound.
	if _, err := c.Await(ctx, 3, func(context.Context) (int, error) { return 300, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Len != 1 || st.Evictions != 2 {
		t.Fatalf("len %d evictions %d after settle, want 1 and 2", st.Len, st.Evictions)
	}
}

// TestCacheStaysBounded: inserting far more keys than the bound keeps
// the cache at the bound, oldest keys evicted first, counters exact.
func TestCacheStaysBounded(t *testing.T) {
	const limit = 8
	c := NewCache[int, int](limit)
	ctx := context.Background()
	for i := 0; i < 5*limit; i++ {
		if v, err := c.Await(ctx, i, func(context.Context) (int, error) { return i, nil }); err != nil || v != i {
			t.Fatalf("Await(%d) = %d, %v", i, v, err)
		}
		if st := c.Stats(); st.Len > limit {
			t.Fatalf("after %d inserts the cache holds %d entries, bound %d", i+1, st.Len, limit)
		}
	}
	st := c.Stats()
	if st.Misses != 5*limit || st.Evictions != 4*limit || st.Hits != 0 {
		t.Fatalf("stats %+v, want %d misses, %d evictions, 0 hits", st, 5*limit, 4*limit)
	}
	// The newest keys survive; the oldest recompute.
	if v, _ := c.Await(ctx, 5*limit-1, func(context.Context) (int, error) { return -1, nil }); v != 5*limit-1 {
		t.Errorf("newest key recomputed: got %d", v)
	}
	if v, _ := c.Await(ctx, 0, func(context.Context) (int, error) { return -1, nil }); v != -1 {
		t.Errorf("oldest key served from cache after eviction: got %d", v)
	}
}

// TestWedgedStarterDoesNotBlockLiveWaiter: a starter that ignores its
// cancelled context must not hold up a waiter whose context is live — the
// waiter evicts the wedged flight and computes the value itself — and
// when the starter finally returns, neither its value nor its
// cancellation eviction touches the replacement.
func TestWedgedStarterDoesNotBlockLiveWaiter(t *testing.T) {
	for _, lateErr := range []error{nil, context.Canceled} {
		c := NewCache[string, int](4)
		starterCtx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		release := make(chan struct{})
		type result struct {
			v   int
			err error
		}
		starter := make(chan result, 1)
		go func() {
			v, err := c.Await(starterCtx, "cell", func(context.Context) (int, error) {
				close(started)
				<-release // ignores its context: wedged
				return 1, lateErr
			})
			starter <- result{v, err}
		}()
		<-started
		cancel()

		waiter := make(chan result, 1)
		go func() {
			v, err := c.Await(context.Background(), "cell", func(context.Context) (int, error) { return 2, nil })
			waiter <- result{v, err}
		}()
		select {
		case r := <-waiter:
			if r.err != nil || r.v != 2 {
				t.Fatalf("late=%v: live waiter got %d, %v; want 2, nil", lateErr, r.v, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("late=%v: live waiter blocked behind a wedged starter", lateErr)
		}

		close(release)
		if r := <-starter; r.v != 1 || r.err != lateErr {
			t.Fatalf("late=%v: starter got %d, %v; want its own result", lateErr, r.v, r.err)
		}
		v, err := c.Await(context.Background(), "cell", func(context.Context) (int, error) {
			t.Errorf("late=%v: the starter's late return evicted the replacement", lateErr)
			return -1, nil
		})
		if err != nil || v != 2 {
			t.Fatalf("late=%v: cached value after the starter returned = %d, %v; want 2", lateErr, v, err)
		}
	}
}

// TestCancelledWaiterLeavesFlight: a waiter whose own context ends stops
// waiting with its context's error, while the flight it left keeps
// computing for everyone else.
func TestCancelledWaiterLeavesFlight(t *testing.T) {
	c := NewCache[int, int](4)
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, _ := c.Await(context.Background(), 1, func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Await(ctx, 1, func(context.Context) (int, error) { return -1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("starter got %d, want 7", v)
	}
	if st := c.Stats(); st.Len != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one cached entry and one hit", st)
	}
}
