package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"specrun/internal/faultinject"
)

// Options tunes one call to [Run].
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, if non-nil, is called after each job completes with the
	// number of finished jobs and the total.  Calls are serialized.
	OnProgress func(done, total int)
	// FailFast stops dispatching new jobs after the first job error;
	// already-running jobs finish.  [First] sets this.
	FailFast bool
}

// PanicError is a worker panic converted into a job error: the recovered
// value plus the goroutine stack at the panic site.  A panicking job must
// never kill a long-running server whose inputs arrive over the network;
// it must also never be silent — the stack makes the report actionable.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: job panicked: %v\n%s", e.Value, e.Stack)
}

// JobError wraps a job failure with the index of the input that caused it.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

func (e *JobError) Unwrap() error { return e.Err }

// Run maps fn over items on a pool of opt.Workers goroutines and returns
// the results in input order: result[i] is fn's output for items[i],
// regardless of scheduling.  Every failing job contributes a *JobError to
// the joined error (ascending by index); the corresponding result slot
// holds the zero value.  If ctx is cancelled mid-sweep, undispatched jobs
// never run and ctx.Err() is included in the returned error.  A [Gate]
// installed on ctx by [WithGate] bounds how many jobs execute at once
// across every Run sharing it.
func Run[I, R any](ctx context.Context, items []I, fn func(context.Context, I) (R, error), opt Options) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}

	gate := GateFrom(ctx)

	jobs := make(chan int)
	stop := make(chan struct{}) // closed on the first error under FailFast
	var (
		mu       sync.Mutex
		done     int
		jobErrs  []*JobError
		gateErr  error // cancellation observed while waiting on the gate
		stopOnce sync.Once
		wg       sync.WaitGroup
		total    = len(items)
		progress = opt.OnProgress
	)

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if gate != nil {
					// A cancelled wait leaves the slot zero with no JobError,
					// like a job the dispatcher never handed out — but the
					// cancellation must still reach the caller: the dispatch
					// loop may have finished before ctx was cancelled, and a
					// silently skipped job must not look like a completed one.
					if err := gate.Acquire(ctx); err != nil {
						mu.Lock()
						if gateErr == nil {
							gateErr = err
						}
						mu.Unlock()
						continue
					}
				}
				r, err := runJob(ctx, items[i], fn)
				if gate != nil {
					gate.Release()
				}
				mu.Lock()
				if err != nil {
					// The slot keeps its zero value: an errored job never
					// publishes a partial result (documented contract).
					jobErrs = append(jobErrs, &JobError{Index: i, Err: err})
					if opt.FailFast {
						stopOnce.Do(func() { close(stop) })
					}
				} else {
					results[i] = r
				}
				done++
				if progress != nil {
					progress(done, total)
				}
				mu.Unlock()
			}
		}()
	}

	var ctxErr error
dispatch:
	for i := range items {
		// Check cancellation before racing it against the send: a ready
		// Done channel must never lose the select to an idle worker, or a
		// cancelled sweep could run to completion and report success.
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		case <-stop:
			break dispatch
		default:
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		case <-stop:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	if ctxErr == nil {
		ctxErr = gateErr
	}
	sort.Slice(jobErrs, func(a, b int) bool { return jobErrs[a].Index < jobErrs[b].Index })
	errs := make([]error, 0, len(jobErrs)+1)
	if ctxErr != nil {
		errs = append(errs, ctxErr)
	}
	for _, je := range jobErrs {
		errs = append(errs, je)
	}
	return results, errors.Join(errs...)
}

// runJob executes one job, converting a panic into a *PanicError carrying
// the stack.  Workers run on their own goroutines, where an unrecovered
// panic would kill the whole process — unacceptable for a long-running
// server whose job inputs arrive over the network.  The chaos harness's
// worker-panic fault point fires here, before fn touches any simulator
// state, so an injected panic fails the sweep cleanly and the server's
// retry of the whole job reproduces the fault-free result.
func runJob[I, R any](ctx context.Context, item I, fn func(context.Context, I) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if faultinject.Fire(faultinject.WorkerPanic) {
		panic("injected worker panic")
	}
	return fn(ctx, item)
}

// First is a convenience wrapper over [Run] for drivers that want the
// seed repository's fail-fast semantics: the first job error stops
// dispatching (in-flight jobs finish) and is returned alone — the lowest
// failing input index, or the cancellation error — not the join.
func First[I, R any](ctx context.Context, items []I, fn func(context.Context, I) (R, error), opt Options) ([]R, error) {
	opt.FailFast = true
	results, err := Run(ctx, items, fn, opt)
	if err == nil {
		return results, nil
	}
	var multi interface{ Unwrap() []error }
	if errors.As(err, &multi) {
		if wrapped := multi.Unwrap(); len(wrapped) > 0 {
			return results, wrapped[0]
		}
	}
	return results, err
}
