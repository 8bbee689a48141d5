// Package cache provides a concurrency-safe LRU cache with request
// coalescing: concurrent GetOrCompute calls for the same key run the
// compute function once and share the result. The engine uses it to key
// compilations, analyses and traces by canonical-source fingerprint, so a
// Check→Triage→Minimize flow (or a parallel campaign) never repeats work
// it has already done.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache is a bounded LRU map from K to V. A capacity <= 0 means unbounded.
// The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[K]*list.Element
	inflight map[K]*flight[V]
	hits     uint64
	misses   uint64
}

type pair[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// abandoned marks a flight whose leader failed because its OWN context
	// was cancelled: the result says nothing about the computation, so
	// coalesced waiters with live contexts retry (one of them becomes the
	// next leader) instead of inheriting a stranger's cancellation.
	abandoned bool
}

// New returns an empty cache holding at most capacity entries (unbounded
// when capacity <= 0).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    map[K]*list.Element{},
		inflight: map[K]*flight[V]{},
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(pair[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// GetOrCompute returns the cached value for key, computing and storing it
// with fn on a miss. Concurrent calls for the same key coalesce: one runs
// fn, the rest block and share its result. Errors are returned to every
// waiter and are not cached.
func (c *Cache[K, V]) GetOrCompute(key K, fn func() (V, error)) (V, error) {
	return c.GetOrComputeCtx(context.Background(), key, fn)
}

// GetOrComputeCtx is GetOrCompute honoring context cancellation while
// waiting on a coalesced computation: a waiter whose ctx is cancelled
// unblocks immediately with ctx.Err() instead of hanging until the
// leader's compute returns. The leader itself always runs fn to
// completion — other waiters may still need the result — so a compute
// that should stop early must check ctx inside fn.
//
// Error semantics: a genuine compute failure is delivered to the leader
// and to every waiter coalesced onto it, exactly once each, and is never
// cached — the next caller recomputes. A failure caused by the LEADER'S
// context being cancelled is different: it says nothing about the key, so
// waiters with live contexts do not inherit it; one of them takes over
// and recomputes (per-request deadlines stay per-request even under
// coalescing).
func (c *Cache[K, V]) GetOrComputeCtx(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return el.Value.(pair[K, V]).val, nil
		}
		if fl, ok := c.inflight[key]; ok {
			// Coalesce onto the running computation. Counts as a hit: the
			// work is shared, not repeated.
			c.hits++
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.abandoned {
					continue // leader cancelled, not a real failure: take over
				}
				return fl.val, fl.err
			case <-ctx.Done():
				return zero, ctx.Err()
			}
		}
		c.misses++
		fl := &flight[V]{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		c.lead(ctx, key, fl, fn)
		return fl.val, fl.err
	}
}

// errPanicked is what coalesced waiters receive when the leader's compute
// panicked; the panic itself continues up the leader's stack.
var errPanicked = errors.New("cache: computation panicked")

// lead runs fn for the flight fl registered under key and publishes the
// result. The flight is settled even when fn panics, so a later call for
// the key computes afresh instead of waiting on a flight that never
// finishes.
func (c *Cache[K, V]) lead(ctx context.Context, key K, fl *flight[V], fn func() (V, error)) {
	fl.err = errPanicked // stands only if fn never returns
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.store(key, fl.val)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	// Only the leader's own cancellation marks the flight abandoned: a
	// compute that failed for a real reason while the leader stayed live
	// must propagate, not be retried by every waiter in turn.
	fl.abandoned = fl.err != nil && ctx.Err() != nil
}

// Add stores a value, evicting the least recently used entry if needed.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, val)
}

// store inserts or refreshes key under c.mu.
func (c *Cache[K, V]) store(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value = pair[K, V]{key, val}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(pair[K, V]{key, val})
	if c.capacity > 0 {
		for c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(pair[K, V]).key)
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the hit and miss counts so far.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
