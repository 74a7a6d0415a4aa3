package runner

import (
	"context"
	"errors"
	"sync"
)

// Group runs one computation per key and shares its result: the first Do
// of a key (the leader) runs its function, and every later Do of the key
// gets the leader's value and error, waiting while it is computed, until
// the key is forgotten. It is the one "first caller computes, the rest
// wait" mechanism behind the run memo's in-flight dedup and the grid's
// shared recordings and identical runs. No waiter is left blocked: a
// waiter gives up when its context is done, and a leader that panics
// hands its waiters ErrPanicked.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one key's computation; val and err are final once done is
// closed.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// ErrPanicked is the error a waiter gets when the leader's function panics.
var ErrPanicked = errors.New("runner: shared computation panicked")

// Do returns key's value, running fn for it unless a caller has claimed
// the key since it was last forgotten; shared reports that the result is
// another caller's. A waiter gives up with ctx's error once ctx is done.
// If fn panics, the key is forgotten, every waiter gets ErrPanicked, and
// the panic goes on in the leader, so a Map item still reports it.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	c := g.claim(key)
	g.mu.Unlock()
	returned := false
	defer func() {
		if !returned {
			// fn panicked: c.err is still ErrPanicked. fn may have
			// forgotten the key and another caller claimed it since.
			g.mu.Lock()
			if g.calls[key] == c {
				delete(g.calls, key)
			}
			g.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = fn()
	returned = true
	return c.val, false, c.err
}

// Set publishes v as key's value unless a caller has claimed the key:
// later Do calls of key return v without running their function.
func (g *Group[V]) Set(key string, v V) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.calls[key]; !ok {
		c := g.claim(key)
		c.val, c.err = v, nil
		close(c.done)
	}
}

// Forget drops key, so the next Do of it runs its function again. Callers
// already waiting on key still get its result.
func (g *Group[V]) Forget(key string) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
}

// claim registers a computation of key, failed until it returns; g.mu
// must be held.
func (g *Group[V]) claim(key string) *call[V] {
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{}), err: ErrPanicked}
	g.calls[key] = c
	return c
}
