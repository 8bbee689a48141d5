package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	if _, ok := c.Get(1); !ok { // 1 becomes most recently used
		t.Fatal("1 missing")
	}
	c.Add(3, 30) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted")
	}
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Errorf("1 lost: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestGetOrComputeCoalesces(t *testing.T) {
	c := New[string, int](0)
	var computes atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err := c.GetOrCompute("k", func() (int, error) {
				computes.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1 (coalesced)", n)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	v, err := c.GetOrCompute("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Errorf("retry after error failed: %v %v", v, err)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

// TestGetOrComputeCtxCancelledWaiter pins the cancellation contract: a
// coalesced waiter whose context is cancelled unblocks with ctx.Err()
// while the leader's compute is still running, and the leader still
// completes and caches its result.
func TestGetOrComputeCtxCancelledWaiter(t *testing.T) {
	c := New[string, int](0)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err := c.GetOrCompute("k", func() (int, error) {
			close(leaderIn)
			<-leaderGo
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader got %v, %v", v, err)
		}
	}()
	<-leaderIn // the computation is in flight

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrComputeCtx(ctx, "k", func() (int, error) {
			t.Error("waiter must coalesce, not compute")
			return 0, nil
		})
		waiterErr <- err
	}()
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the in-flight compute")
	}

	close(leaderGo)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Errorf("leader result not cached: %v %v", v, ok)
	}
}

// TestGetOrComputeCtxPreCancelled: a call with an already-cancelled
// context returns immediately without computing.
func TestGetOrComputeCtxPreCancelled(t *testing.T) {
	c := New[string, int](0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetOrComputeCtx(ctx, "k", func() (int, error) {
		t.Error("compute ran under a cancelled context")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestLeaderErrorPropagatesToWaiters pins the failure contract of
// coalescing: every waiter coalesced onto a failing leader receives the
// leader's error — the same value, delivered exactly once per waiter —
// the failure is not cached, and the next caller recomputes fresh.
func TestLeaderErrorPropagatesToWaiters(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var computes atomic.Int64

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrCompute("k", func() (int, error) {
			computes.Add(1)
			close(leaderIn)
			<-leaderGo
			return 0, boom
		})
		leaderErr <- err
	}()
	<-leaderIn // the failing computation is in flight

	const waiters = 8
	errs := make(chan error, waiters)
	var joined sync.WaitGroup
	for i := 0; i < waiters; i++ {
		joined.Add(1)
		go func() {
			joined.Done()
			_, err := c.GetOrCompute("k", func() (int, error) {
				t.Error("waiter must coalesce onto the failing leader, not compute")
				return 0, nil
			})
			errs <- err
		}()
	}
	joined.Wait()
	// The waiters are launched; give them a beat to reach the coalesce
	// path before the leader fails. A waiter that misses the flight would
	// compute (and trip the t.Error above), so the assertion stands
	// regardless of scheduling.
	time.Sleep(10 * time.Millisecond)
	close(leaderGo)

	if err := <-leaderErr; err != boom {
		t.Errorf("leader err = %v, want boom", err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err != boom {
				t.Errorf("waiter err = %v, want the leader's error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never unblocked after the leader failed")
		}
	}
	if c.Len() != 0 {
		t.Errorf("failed computation was cached: len = %d, want 0", c.Len())
	}
	// The failure was not cached: the next caller computes fresh.
	v, err := c.GetOrCompute("k", func() (int, error) {
		computes.Add(1)
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Errorf("recompute after failure: %v %v", v, err)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computed %d times, want 2 (failed once, recomputed once)", n)
	}
}

// TestLeaderCancellationDoesNotPoisonWaiters: when the leader's own
// context is cancelled mid-compute, its failure is an artifact of THAT
// request's deadline, not of the key — a coalesced waiter with a live
// context must take over and compute instead of inheriting the
// cancellation (the per-request-deadline contract the serving layer's
// request batching depends on).
func TestLeaderCancellationDoesNotPoisonWaiters(t *testing.T) {
	c := New[string, int](0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	var computes atomic.Int64

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrComputeCtx(leaderCtx, "k", func() (int, error) {
			computes.Add(1)
			close(leaderIn)
			<-leaderCtx.Done() // a well-behaved compute observes its ctx
			return 0, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-leaderIn

	waiterVal := make(chan int, 1)
	go func() {
		v, err := c.GetOrComputeCtx(context.Background(), "k", func() (int, error) {
			computes.Add(1)
			return 42, nil
		})
		if err != nil {
			t.Errorf("live waiter inherited the leader's cancellation: %v", err)
		}
		waiterVal <- v
	}()
	// Let the waiter coalesce onto the doomed flight, then kill the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	select {
	case v := <-waiterVal:
		if v != 42 {
			t.Errorf("waiter got %d, want 42 from its own takeover compute", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never took over after the leader was cancelled")
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Errorf("takeover result not cached: %v %v", v, ok)
	}
}

func TestUnboundedCapacity(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 100; i++ {
		c.Add(i, i)
	}
	if c.Len() != 100 {
		t.Errorf("len = %d, want 100", c.Len())
	}
}

// TestPanickingComputeSettlesFlight: a compute that panics must not leave
// its key in flight. A waiter coalesced onto it fails instead of blocking,
// the panic reaches the leader unchanged, and the next call for the key
// runs its compute again.
func TestPanickingComputeSettlesFlight(t *testing.T) {
	c := New[string, int](0)
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.GetOrCompute("k", func() (int, error) {
			<-release
			panic("boom")
		})
	}()
	waiterErr := make(chan error, 1)
	go func() {
		for {
			if _, misses := c.Stats(); misses == 1 {
				break // the leader's flight is registered
			}
			time.Sleep(time.Millisecond)
		}
		_, err := c.GetOrCompute("k", func() (int, error) { return 0, errors.New("waiter computed") })
		waiterErr <- err
	}()
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		time.Sleep(time.Millisecond) // until the waiter has coalesced
	}
	close(release)

	if r := <-leaderPanic; r != "boom" {
		t.Errorf("leader recovered %v, want the compute's own panic", r)
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, errPanicked) {
			t.Errorf("waiter err = %v, want errPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter blocked on the panicked flight")
	}

	done := make(chan struct{})
	var v, runs int
	var err error
	go func() {
		defer close(done)
		v, err = c.GetOrCompute("k", func() (int, error) { runs++; return 7, nil })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("call after the panic blocked on the dead flight")
	}
	if v != 7 || err != nil || runs != 1 {
		t.Errorf("after the panic: v=%d err=%v runs=%d, want 7, nil, 1", v, err, runs)
	}
}
