package sweep

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// Gate is a concurrency budget shared across independent [Run] calls: each
// worker acquires one token per job, so N concurrent sweeps together never
// execute more than the gate's capacity of simulations at once, instead of
// oversubscribing the machine with N×GOMAXPROCS goroutines.  The server
// subsystem installs one process-wide gate; a nil *Gate imposes no limit.
type Gate struct {
	tokens chan struct{}
	queued atomic.Int64
	waitFn atomic.Pointer[func(time.Duration)]
}

// NewGate builds a gate admitting n concurrent jobs (n <= 0 = GOMAXPROCS).
func NewGate(n int) *Gate {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Gate{tokens: make(chan struct{}, n)}
}

// Cap reports the gate's capacity.
func (g *Gate) Cap() int { return cap(g.tokens) }

// InFlight reports how many tokens are currently held.
func (g *Gate) InFlight() int { return len(g.tokens) }

// Queued reports how many Acquire calls are currently blocked waiting.
func (g *Gate) Queued() int { return int(g.queued.Load()) }

// OnWait installs fn to observe how long each Acquire that could not get a
// token immediately ended up waiting (nil removes it).  The uncontended
// fast path never calls fn and never reads the clock, so an instrumented
// idle gate costs one atomic load per Acquire.
func (g *Gate) OnWait(fn func(waited time.Duration)) {
	if fn == nil {
		g.waitFn.Store(nil)
		return
	}
	g.waitFn.Store(&fn)
}

// Acquire blocks until a token is available or ctx is done.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.tokens <- struct{}{}:
		return nil // fast path: no queueing, no clock read
	default:
	}
	g.queued.Add(1)
	var start time.Time
	fn := g.waitFn.Load()
	if fn != nil {
		start = time.Now()
	}
	defer func() {
		g.queued.Add(-1)
		if fn != nil {
			(*fn)(time.Since(start))
		}
	}()
	select {
	case g.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a token taken by Acquire.
func (g *Gate) Release() { <-g.tokens }

type gateKey struct{}

// WithGate returns a context carrying the gate.  [Run] honors it, which
// lets a server-wide budget flow through driver functions that only take a
// context.
func WithGate(ctx context.Context, g *Gate) context.Context {
	return context.WithValue(ctx, gateKey{}, g)
}

// GateFrom extracts the gate installed by [WithGate] (nil if none).
func GateFrom(ctx context.Context) *Gate {
	g, _ := ctx.Value(gateKey{}).(*Gate)
	return g
}

// Errors unwraps the joined error returned by [Run] into its parts, keeping
// only per-job failures (nil or a bare cancellation error yields none).
func Errors(err error) []*JobError {
	if err == nil {
		return nil
	}
	var jobErrs []*JobError
	if je, ok := err.(*JobError); ok {
		return []*JobError{je}
	}
	if m, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range m.Unwrap() {
			if je, ok := e.(*JobError); ok {
				jobErrs = append(jobErrs, je)
			}
		}
	}
	return jobErrs
}
