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

func TestMapOrderDeterministic(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		res, err := Map(context.Background(), items, Options{Workers: workers},
			func(_ context.Context, i int, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapCollectsAllErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	sentinel := errors.New("boom")
	_, err := Map(context.Background(), items, Options{Workers: 3},
		func(_ context.Context, i int, v int) (int, error) {
			if v%2 == 1 {
				return 0, fmt.Errorf("item %d: %w", i, sentinel)
			}
			return v, nil
		})
	if err == nil {
		t.Fatal("want joined error")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error lost the cause: %v", err)
	}
	// Every failure must be present, not just the first.
	for _, want := range []string{"item 1", "item 3", "item 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

func TestMapPartialResultsSurviveErrors(t *testing.T) {
	res, err := Map(context.Background(), []int{1, 2, 3}, Options{Workers: 2},
		func(_ context.Context, i int, v int) (int, error) {
			if i == 1 {
				return 0, errors.New("middle fails")
			}
			return v * 10, nil
		})
	if err == nil {
		t.Fatal("want error")
	}
	if res[0] != 10 || res[1] != 0 || res[2] != 30 {
		t.Fatalf("partial results wrong: %v", res)
	}
}

func TestMapPanicBecomesItemError(t *testing.T) {
	res, err := Map(context.Background(), []int{0, 1, 2}, Options{Workers: 2},
		func(_ context.Context, i int, v int) (int, error) {
			if i == 1 {
				panic("kaboom")
			}
			return v + 1, nil
		})
	if err == nil {
		t.Fatal("want panic converted to error")
	}
	if !strings.Contains(err.Error(), "item 1 panicked: kaboom") {
		t.Fatalf("panic error missing context: %v", err)
	}
	if res[0] != 1 || res[2] != 3 {
		t.Fatalf("other items lost: %v", res)
	}
}

func TestMapBoundsConcurrencyAndGoroutines(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(context.Background(), items, Options{Workers: workers},
		func(_ context.Context, i int, _ int) (int, error) {
			n := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	items := make([]int, 1000)
	stop := make(chan struct{})
	var once sync.Once
	start := time.Now()
	_, err := Map(ctx, items, Options{Workers: 2},
		func(_ context.Context, i int, _ int) (int, error) {
			started.Add(1)
			once.Do(func() {
				cancel()
				close(stop)
			})
			<-stop // every in-flight item returns once cancel has fired
			return 0, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in joined error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	// Only items already picked up may have run; the bulk must be skipped.
	if n := started.Load(); n > 10 {
		t.Fatalf("%d items started after cancellation window, want a handful", n)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, []int{1, 2, 3}, Options{},
		func(_ context.Context, i int, v int) (int, error) {
			ran.Add(1)
			return v, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran on a dead context", ran.Load())
	}
}

func TestMapProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	n := 17
	items := make([]int, n)
	_, err := Map(context.Background(), items, Options{
		Workers: 4,
		OnProgress: func(done, total int) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			mu.Lock()
			seen = append(seen, done)
			mu.Unlock()
		},
	}, func(_ context.Context, i int, v int) (int, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("%d progress calls, want %d", len(seen), n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress not monotonic: %v", seen)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	res, err := Map(context.Background(), nil, Options{},
		func(_ context.Context, i int, v int) (int, error) { return v, nil })
	if err != nil || len(res) != 0 {
		t.Fatalf("empty map: res=%v err=%v", res, err)
	}
}

func TestOptionsWorkerClamp(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 100, -1}, // GOMAXPROCS: just assert >= 1 below
		{-3, 5, -1},
		{8, 3, 3},
		{2, 100, 2},
		{5, 0, 1},
	}
	for _, c := range cases {
		got := Options{Workers: c.workers}.workers(c.n)
		if c.want >= 0 && got != c.want {
			t.Errorf("workers(%d) with Workers=%d: got %d, want %d", c.n, c.workers, got, c.want)
		}
		if got < 1 {
			t.Errorf("workers(%d) with Workers=%d: got %d < 1", c.n, c.workers, got)
		}
	}
}

// TestMapNilObserverZeroAllocs pins the nil-observer fast path: an
// unobserved Workers:1 Map must cost a constant number of allocations
// (the two result slices) regardless of item count — no per-item span
// contexts, no callback machinery. alloccheck.sh runs this pin; adding
// any per-item allocation to the fast path is a regression.
func TestMapNilObserverZeroAllocs(t *testing.T) {
	items := make([]int, 1024)
	fn := func(_ context.Context, _ int, v int) (int, error) { return v, nil }
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Map(ctx, items, Options{Workers: 1}, fn); err != nil {
			t.Fatal(err)
		}
	})
	// The fixed cost is the res and errs slices (plus small rounding
	// slack); anything scaling with len(items) lands far above this.
	if allocs > 8 {
		t.Fatalf("nil-observer Map allocates %.0f/run for 1024 items — per-item allocation crept into the fast path", allocs)
	}
}
