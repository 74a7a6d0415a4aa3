package runner

import "sync"

// Flight is a generic singleflight group: concurrent Do calls with the
// same key share one execution of fn. It is the in-flight companion to a
// result cache — the cache stops *repeated* work, the flight stops
// *simultaneous* work (two sweep workers needing the same baseline point
// run it once and both get the leader's result).
//
// Unlike golang.org/x/sync/singleflight this version is generic (no
// interface{} boxing on the simulator's result values) and deliberately
// minimal: no Forget, no DoChan — completed keys leave the group
// immediately, so a later Do with the same key re-executes fn (the layer
// above is expected to consult its cache first).
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// flightCall is one in-flight execution.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do executes fn under key, coalescing concurrent calls: the first caller
// (the leader) runs fn; callers arriving before the leader finishes wait
// and receive the leader's result with shared=true. Errors propagate to
// every waiter. A panic in fn is converted into a join on the leader only;
// waiters would deadlock, so fn must not panic — the runner pool's
// recovery wrapper (Map) already guarantees that for simulation work,
// and the memo layer passes only error-returning closures.
func (f *Flight[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// InFlight reports how many keys are currently executing.
func (f *Flight[V]) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
