package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateBoundsConcurrency runs two sweeps that share one 2-token gate
// with generously-sized worker pools and asserts the number of jobs
// executing at once never exceeds the budget.
func TestGateBoundsConcurrency(t *testing.T) {
	gate := NewGate(2)
	var cur, peak atomic.Int64
	job := func(context.Context, int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	}
	items := make([]int, 40)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(WithGate(context.Background(), gate), items, job, Options{Workers: 8}); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeded gate budget 2", p)
	}
}

func TestGateAcquireCancelled(t *testing.T) {
	gate := NewGate(1)
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer gate.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := gate.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on cancelled ctx = %v", err)
	}
	// A cancelled gated sweep completes without deadlocking; jobs that
	// never acquired the gate are reported as cancelled, not as failures.
	items := make([]int, 4)
	_, err := Run(WithGate(ctx, gate), items, func(context.Context, int) (int, error) { return 1, nil },
		Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("gated cancelled Run = %v", err)
	}
	if jobErrs := Errors(err); len(jobErrs) != 0 {
		t.Fatalf("cancelled gated jobs produced job errors: %v", jobErrs)
	}
}

// TestGateCancelAfterDispatch: cancellation that lands after every job was
// dispatched — while workers are still blocked on the gate — must surface
// as an error, not as a silent all-zero success.
func TestGateCancelAfterDispatch(t *testing.T) {
	gate := NewGate(1)
	if err := gate.Acquire(context.Background()); err != nil { // hold the only token
		t.Fatal(err)
	}
	defer gate.Release()

	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := Run(WithGate(ctx, gate), items, func(context.Context, int) (int, error) { return 1, nil },
			Options{Workers: len(items)})
		errc <- err
	}()
	// Give the dispatcher time to hand out both jobs and exit its loop.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after post-dispatch cancellation = %v, want context.Canceled", err)
	}
}

func TestErrorsHelper(t *testing.T) {
	if Errors(nil) != nil {
		t.Fatal("Errors(nil) != nil")
	}
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3}
	_, err := Run(context.Background(), items, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, boom
		}
		return i, nil
	}, Options{Workers: 2})
	jobErrs := Errors(err)
	if len(jobErrs) != 2 || jobErrs[0].Index != 1 || jobErrs[1].Index != 3 {
		t.Fatalf("Errors = %v", jobErrs)
	}
	// A bare (unjoined) JobError also unwraps.
	single := &JobError{Index: 7, Err: boom}
	if got := Errors(single); len(got) != 1 || got[0].Index != 7 {
		t.Fatalf("Errors(single) = %v", got)
	}
}

// TestGateOccupancy pins the instrumentation the /metrics endpoint exports:
// InFlight tracks held tokens, Queued tracks blocked acquirers, and the
// wait observer fires only for acquires that actually queued.
func TestGateOccupancy(t *testing.T) {
	g := NewGate(1)
	var waits atomic.Int64
	g.OnWait(func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative wait %v", d)
		}
		waits.Add(1)
	})
	ctx := context.Background()

	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("idle gate: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if g.InFlight() != 1 {
		t.Fatalf("inflight = %d after acquire", g.InFlight())
	}
	if waits.Load() != 0 {
		t.Fatal("uncontended acquire invoked the wait observer")
	}

	// A second acquirer must queue until the token is released.
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(entered)
		done <- g.Acquire(ctx)
	}()
	<-entered
	for i := 0; g.Queued() != 1; i++ {
		if i > 1000 {
			t.Fatal("second acquirer never counted as queued")
		}
		time.Sleep(time.Millisecond)
	}
	g.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if g.Queued() != 0 || g.InFlight() != 1 {
		t.Fatalf("after handoff: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
	if waits.Load() != 1 {
		t.Fatalf("wait observer fired %d times, want 1", waits.Load())
	}
	g.Release()

	// A cancelled queued acquire still reports its wait and leaves the
	// queue count clean.
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		for g.Queued() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if err := g.Acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v", err)
	}
	if g.Queued() != 0 {
		t.Fatalf("queued = %d after cancellation", g.Queued())
	}
	if waits.Load() != 2 {
		t.Fatalf("wait observer fired %d times, want 2", waits.Load())
	}
	g.Release()
}
