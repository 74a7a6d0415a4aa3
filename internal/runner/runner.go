// Package runner is the generic bounded worker-pool sweep runner behind
// the figure and sweep pipelines: every experiment in the paper's
// evaluation (Figs. 12-15) is a grid of independent (query, design,
// sweep-point) simulations, and this package fans such grids out across
// GOMAXPROCS workers while keeping the results deterministic.
//
// Guarantees:
//
//   - Bounded concurrency: at most Options.Workers goroutines run items,
//     and at most min(Workers, len(items)) goroutines are ever created —
//     never one per item. A single-worker pool runs inline on the caller's
//     goroutine, paying no dispatch overhead at all.
//   - Deterministic ordering: result i always corresponds to item i,
//     regardless of worker count or completion order.
//   - Full error aggregation: every failing item's error is collected and
//     returned via errors.Join, not just the first.
//   - Cancellation: once ctx is cancelled no new item starts; in-flight
//     items finish and the joined error includes ctx's cause.
//   - Panic containment: a panicking item is converted into that item's
//     error (with its stack) instead of crashing the whole sweep.
//
// Dispatch is chunked: workers draw contiguous index ranges, not single
// indices, so the per-item channel handoff is amortized over the chunk.
// Cheap items (single-design runs, small sweep cells) would otherwise spend
// a measurable share of the sweep on scheduler wakeups — the
// BenchmarkSweepParallelism regression this design removes.
//
// Workers must not share mutable state through the item function; each
// simulation run owns a fresh sim.System, which is what makes the fan-out
// sound (see internal/core).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Options configures one Map call.
type Options struct {
	// Workers bounds the number of concurrently running items.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is called after each item completes with
	// the number of completed items and the total. Calls are serialized,
	// so the callback needs no locking of its own, but it runs on worker
	// goroutines and should be cheap.
	OnProgress func(done, total int)
	// Observer, when non-nil, receives run-lifecycle callbacks for the
	// sweep: one SweepStarted per Map call, then per-item
	// started/finished callbacks from the worker goroutines (the observer
	// must be goroutine-safe). A nil Observer costs nothing — the fast
	// path has no per-item allocation or indirection.
	Observer SweepObserver
}

// SweepObserver receives run-lifecycle callbacks from Map — the
// hook the observability plane (internal/obs) uses to track job spans,
// queue waits, and worker occupancy without the pool knowing anything
// about metrics or logging.
type SweepObserver interface {
	// SweepStarted is called once per Map invocation, before any item
	// runs, with the item count. Every item is considered enqueued at this
	// point. The returned span receives the per-item callbacks; returning
	// nil disables them for this sweep.
	SweepStarted(total int) SweepSpan
}

// SweepSpan receives one sweep's per-item callbacks. Item indices are the
// Map item indices; worker is the pool worker slot running the item
// (0 for the inline single-worker path). Callbacks arrive from worker
// goroutines, concurrently across items; implementations must be
// goroutine-safe.
type SweepSpan interface {
	// JobStarted: item i began executing on worker w.
	JobStarted(i, worker int)
	// JobAnnotate attaches key=value to item i — e.g. the memo layer's
	// hit/miss attribution, delivered via Annotate from inside the item
	// function. It may arrive any time between JobStarted and JobFinished.
	JobAnnotate(i int, key, value string)
	// JobFinished: item i completed; err is the item's error (nil on
	// success). Items skipped by cancellation never start and never
	// finish.
	JobFinished(i, worker int, err error)
}

// jobCtxKey carries the current item's span reference through the context
// handed to the item function, so layers below the pool (the memo cache
// routing in internal/core) can annotate the job they run under.
type jobCtxKey struct{}

type jobRef struct {
	span SweepSpan
	i    int
}

// Annotate attaches key=value to the sweep item driving ctx, if ctx
// descends from an observed Map call; otherwise it is a no-op. This
// is how code inside an item function reports per-job attribution (memo
// hit/miss, retry counts) without threading the observer through every
// signature.
func Annotate(ctx context.Context, key, value string) {
	if r, ok := ctx.Value(jobCtxKey{}).(jobRef); ok {
		r.span.JobAnnotate(r.i, key, value)
	}
}

// workers resolves the effective worker count for n items.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in item order. fn receives the item's index so it can label its
// own errors; Map itself wraps only panics. On failure the returned slice
// still holds every successful result (failed slots keep R's zero value)
// and the error joins every per-item failure, plus the context cause if
// the sweep was cancelled.
func Map[T, R any](ctx context.Context, items []T, opts Options, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	res := make([]R, n)
	if n == 0 || ctx.Err() != nil {
		return res, ctx.Err()
	}
	errs := make([]error, n)
	workers := opts.workers(n)
	var span SweepSpan
	if opts.Observer != nil {
		span = opts.Observer.SweepStarted(n)
	}
	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
	)
	progress := func() {
		if opts.OnProgress != nil {
			progressMu.Lock()
			done++
			opts.OnProgress(done, n)
			progressMu.Unlock()
		}
	}
	// runItem executes item i on worker w, bracketed by the span callbacks
	// when the sweep is observed. The nil-span fast path adds no context
	// allocation and no calls — the zero-overhead contract the alloc pin
	// in runner_test.go enforces.
	runItem := func(ctx context.Context, i, w int) {
		if span != nil {
			span.JobStarted(i, w)
			ctx = context.WithValue(ctx, jobCtxKey{}, jobRef{span, i})
		}
		errs[i] = runOne(ctx, i, items[i], fn, &res[i])
		if span != nil {
			span.JobFinished(i, w, errs[i])
		}
		progress()
	}
	if workers == 1 {
		// Degenerate pool: run every item inline on this goroutine. Same
		// semantics — per-item cancellation check, panic containment,
		// serialized progress — with zero goroutine/channel overhead, so a
		// Workers:1 (or single-CPU) sweep costs exactly a for loop.
		for i := 0; i < n && ctx.Err() == nil; i++ {
			runItem(ctx, i, 0)
		}
		return res, joinWith(ctx, errs)
	}
	// Chunked dispatch: hand each worker a contiguous index range so the
	// channel handoff (and the attendant scheduler wakeup) is paid once per
	// chunk, not once per item. ~8 chunks per worker keeps the tail balanced
	// while amortizing dispatch; cancellation is still checked per item.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	type chunkRange struct{ lo, hi int }
	chunks := make(chan chunkRange)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sp := range chunks {
				for i := sp.lo; i < sp.hi && ctx.Err() == nil; i++ {
					runItem(ctx, i, w)
				}
			}
		}(w)
	}
feed:
	for lo := 0; lo < n; lo += chunk {
		// The explicit Err check keeps the select's random choice from
		// feeding extra chunks once cancellation has been observed.
		if ctx.Err() != nil {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case chunks <- chunkRange{lo, hi}:
		case <-ctx.Done():
			break feed
		}
	}
	close(chunks)
	wg.Wait()
	return res, joinWith(ctx, errs)
}

// joinWith joins the per-item errors plus the context cause, if any.
func joinWith(ctx context.Context, errs []error) error {
	var all []error
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	return errors.Join(all...)
}

// runOne executes one item, converting a panic into its error.
func runOne[T, R any](ctx context.Context, i int, item T, fn func(context.Context, int, T) (R, error), out *R) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: item %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	r, ferr := fn(ctx, i, item)
	if ferr != nil {
		return ferr
	}
	*out = r
	return nil
}
