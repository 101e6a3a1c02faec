// Package runner is the concurrent execution backbone of the reproduction:
// a context-aware worker pool that runs independent jobs — device
// simulations, experiment renders, sensitivity sweeps — with bounded
// parallelism, per-job error capture, and deterministic result ordering.
//
// Jobs are addressed by index, never by completion order, so a parallel run
// produces results that are byte-identical to a sequential one: Collect
// stores job i's value at out[i], and Each reports the error of the
// lowest-indexed failed job. Cancelling the context (or any job failing)
// stops the pool early; jobs that never started are simply skipped.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a job panic converted into an error: the pool (and
// Cache.Await) recover panics so one broken cell fails its own job instead of
// killing the whole process — the serving layer depends on this to keep
// a daemon alive through a panicking render.
type PanicError struct {
	// Value is the recovered panic value; Stack the goroutine stack at
	// the panic site.
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %v\n%s", e.Value, e.Stack)
}

// call invokes fn, converting a panic into a *PanicError.
func call(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Pool executes independent jobs with at most Workers goroutines.
type Pool struct {
	workers int
}

// New returns a pool running at most workers jobs concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's parallelism bound.
func (p *Pool) Workers() int { return p.workers }

// Each runs fn(ctx, i) for every i in [0, n), at most p.Workers() at a
// time. The first failure cancels the context handed to in-flight jobs and
// stops undispatched ones; Each then returns the error of the
// lowest-indexed job that failed for a reason other than that cancellation
// (falling back to the lowest-indexed cancellation error, then to the
// caller's own context error). A job's real error thus always outranks the
// cancellation noise it caused — though when several jobs would genuinely
// fail, which of them got dispatched before the cancellation landed can
// depend on timing. Only result ordering is fully deterministic, not
// error identity.
func (p *Pool) Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return p.run(ctx, n, fn, true)
}

// EachAll is Each without failure fan-out: every job runs even when some
// fail, so one bad job cannot starve independent siblings. Cancelling ctx
// still stops the pool. EachAll returns the lowest-indexed job error
// (preferring real failures over cancellations), or nil if all succeeded.
func (p *Pool) EachAll(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return p.run(ctx, n, fn, false)
}

func (p *Pool) run(ctx context.Context, n int, fn func(ctx context.Context, i int) error, failFast bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path: no goroutines. Like the concurrent path,
		// a real failure outranks cancellation-classified errors.
		var firstReal, firstCancel error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if firstCancel == nil {
					firstCancel = err
				}
				break
			}
			if err := call(ctx, i, fn); err != nil {
				if failFast {
					return err
				}
				if !IsCancellation(err) {
					if firstReal == nil {
						firstReal = err
					}
				} else if firstCancel == nil {
					firstCancel = err
				}
			}
		}
		if firstReal != nil {
			return firstReal
		}
		return firstCancel
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next int64 = -1
		wg   sync.WaitGroup
		errs = make([]error, n)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := runCtx.Err(); err != nil {
					errs[i] = err
					return
				}
				if err := call(runCtx, i, fn); err != nil {
					errs[i] = err
					if failFast {
						cancel()
					}
				}
			}
		}()
	}
	wg.Wait()

	// Real failures outrank the cancellations they caused.
	for _, err := range errs {
		if err != nil && !IsCancellation(err) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Collect runs fn(ctx, i) for every i in [0, n) through the pool and
// returns the results keyed by job index — out[i] is job i's value
// regardless of completion order — or the first error per Each's rules.
func Collect[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Each(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// IsCancellation reports whether err stems from context cancellation or
// deadline expiry rather than a job's own failure.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
