package engine

import (
	"sync"
	"sync/atomic"
)

// flightCache is an unbounded content-keyed cache with single-flight
// semantics: the first caller of a key computes the value while concurrent
// callers of the same key block until the computation lands, so an
// artifact is never built twice.
type flightCache[V any] struct {
	mu      sync.Mutex
	entries map[string]*flightEntry[V]

	hits, misses atomic.Int64
}

type flightEntry[V any] struct {
	done chan struct{}
	val  V
	keep bool
}

func newFlightCache[V any]() *flightCache[V] {
	return &flightCache[V]{entries: map[string]*flightEntry[V]{}}
}

// get returns the value for key, computing it via fn on first use. The
// first boolean reports whether the value came from the cache (or from
// another caller's in-flight computation); the second reports that the
// wait was abandoned because abort fired first (the value is the zero V).
// A nil abort channel waits indefinitely. fn's second result reports
// whether the value should be retained — failed computations return false
// so they are retried on the next request; concurrent waiters of the same
// flight still receive the non-retained value. A panic in fn removes the
// in-flight entry and unblocks waiters before propagating, so the key is
// never poisoned.
func (c *flightCache[V]) get(abort <-chan struct{}, key string, fn func() (V, bool)) (val V, cached, aborted bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-abort:
			return val, false, true
		}
		if e.keep {
			// Joins of discarded flights (failed, canceled or panicked)
			// don't count as hits — the caller will recompute.
			c.hits.Add(1)
		}
		return e.val, true, false
	}
	e := &flightEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	defer func() {
		if !e.keep {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.keep = fn()
	return e.val, false, false
}
