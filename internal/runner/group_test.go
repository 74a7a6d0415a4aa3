package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitingCtx is a never-cancelled context that closes waiting the first
// time its Done channel is read, which Group.Do does only once a waiter
// has found the key claimed and blocks on it.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestGroupDedup: concurrent callers on one key coalesce onto the leader's
// execution, and a caller arriving after it finished gets the same value
// without running fn.
func TestGroupDedup(t *testing.T) {
	var g Group[int]
	var execs, sharedCount atomic.Int32
	gate := make(chan struct{})
	ready := make(chan struct{}, 16)
	const callers = 16

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready <- struct{}{}
			v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
				execs.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if v != 42 {
				t.Errorf("Do = %d, want 42", v)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	for i := 0; i < callers; i++ {
		<-ready
	}
	close(gate)
	wg.Wait()

	if execs.Load() != 1 || sharedCount.Load() != callers-1 {
		t.Fatalf("%d executions and %d shared among %d callers, want 1 and %d",
			execs.Load(), sharedCount.Load(), callers, callers-1)
	}
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
		t.Fatal("finished key recomputed")
		return 0, nil
	})
	if v != 42 || !shared || err != nil {
		t.Fatalf("Do after completion = (%d, %v, %v), want (42, true, nil)", v, shared, err)
	}
}

// TestGroupForgetReexecutes: a finished key keeps its value until it is
// forgotten, and the next Do after Forget runs fn again (caching across
// forgets is the layer above).
func TestGroupForgetReexecutes(t *testing.T) {
	var g Group[string]
	execs := 0
	fn := func() (string, error) {
		execs++
		return "v", nil
	}
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", fn)
		if err != nil || v != "v" || shared != (i > 0) {
			t.Fatalf("Do %d = (%q, %v, %v)", i, v, shared, err)
		}
	}
	g.Forget("k")
	if v, shared, err := g.Do(context.Background(), "k", fn); err != nil || v != "v" || shared {
		t.Fatalf("Do after Forget = (%q, %v, %v)", v, shared, err)
	}
	if execs != 2 {
		t.Fatalf("fn executed %d times, want 2", execs)
	}
}

// TestGroupErrorPropagates: the leader's error reaches every sharer, and
// once the failed key is forgotten a retry succeeds.
func TestGroupErrorPropagates(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-gate
			return 0, boom
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}

	g.Forget("k")
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("retry Do = (%d, %v, %v), want (7, false, nil)", v, shared, err)
	}
}

// TestGroupDistinctKeysParallel: different keys never block each other.
func TestGroupDistinctKeysParallel(t *testing.T) {
	var g Group[int]
	aInside := make(chan struct{})
	aRelease := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Do(context.Background(), "a", func() (int, error) {
			close(aInside)
			<-aRelease
			return 1, nil
		})
	}()
	<-aInside
	// With "a" still in flight, "b" must complete immediately.
	v, shared, err := g.Do(context.Background(), "b", func() (int, error) { return 2, nil })
	if v != 2 || shared || err != nil {
		t.Fatalf("Do(b) = (%d, %v, %v)", v, shared, err)
	}
	close(aRelease)
	wg.Wait()
}

// TestGroupWaiterCancelled: a waiter whose context is done gives up with
// its context's error while the leader is still running, and the leader's
// result is unaffected.
func TestGroupWaiterCancelled(t *testing.T) {
	var g Group[int]
	inside, release := make(chan struct{}), make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func() (int, error) {
			close(inside)
			<-release
			return 5, nil
		})
		leader <- v
	}()
	<-inside
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, shared, err := g.Do(ctx, "k", func() (int, error) { return 0, nil }); !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got (shared %v, %v), want context.Canceled", shared, err)
	}
	close(release)
	if v := <-leader; v != 5 {
		t.Fatalf("leader got %d, want 5", v)
	}
}

// TestGroupPanic: a leader that panics hands its waiter ErrPanicked,
// promptly, re-raises the panic, and frees the key for the next Do.
func TestGroupPanic(t *testing.T) {
	var g Group[int]
	inside, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(inside)
			<-release
			panic("boom")
		})
	}()
	<-inside
	waiter := make(chan error, 1)
	go func() {
		ctx := &waitingCtx{Context: context.Background(), waiting: release}
		_, _, err := g.Do(ctx, "k", func() (int, error) { return 0, errors.New("waiter ran fn") })
		waiter <- err
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("waiter got %v, want ErrPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked 5s after the leader panicked")
	}
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the re-raised panic", p)
	}
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 9, nil })
	if v != 9 || shared || err != nil {
		t.Fatalf("Do after the panic = (%d, %v, %v), want (9, false, nil)", v, shared, err)
	}
}

// TestGroupSet: Set publishes a value for an unclaimed key, which later
// Do calls share without running fn; on a claimed key, in flight or
// finished, it is ignored.
func TestGroupSet(t *testing.T) {
	var g Group[int]
	g.Set("free", 3)
	v, shared, err := g.Do(context.Background(), "free", func() (int, error) {
		t.Fatal("Set key recomputed")
		return 0, nil
	})
	if v != 3 || !shared || err != nil {
		t.Fatalf("Do of a Set key = (%d, %v, %v), want (3, true, nil)", v, shared, err)
	}

	inside, release := make(chan struct{}), make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "claimed", func() (int, error) {
			close(inside)
			<-release
			return 5, nil
		})
		leader <- v
	}()
	<-inside
	g.Set("claimed", 6)
	close(release)
	if v := <-leader; v != 5 {
		t.Fatalf("leader got %d, want 5", v)
	}
	g.Set("claimed", 7)
	if v, _, _ := g.Do(context.Background(), "claimed", nil); v != 5 {
		t.Fatalf("Do of a claimed key after Set = %d, want the leader's 5", v)
	}
}
