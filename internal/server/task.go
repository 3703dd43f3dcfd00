package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"specrun/internal/sweep"
)

// task is one request reduced to what its execution needs, whichever route
// it arrived on.  One builder per kind (driverTask, sweepTask, fuzzTask,
// programTask) validates a request into a task; the synchronous routes hand
// it to serveTask and jobs to runJob, so the two paths share every key,
// gate and encoding decision.
type task struct {
	kind string // job kind, and the prefix of a run error
	key  string // content address of the result in the shared cache
	// begin, when set, is the progress a job reports before it probes the
	// cache: a program job announces its megacycle budget as 0/budget.
	begin *JobProgress
	// run simulates under ctx, reporting progress in the kind's unit
	// (progress is nil on the synchronous path).  It returns a nil result
	// with any error, except that a cancelled sweep or campaign also
	// returns the partial result of the work it finished.
	run func(ctx context.Context, progress func(done, total int)) (any, error)
}

// serveTask is the one synchronous path.  A build error is a 400 with the
// builder's message — the same text POST /v1/jobs answers for the same
// spec.  Otherwise cache.Do runs the task at most once per key:
// concurrent identical requests coalesce onto one simulation, which runs
// under the server's base context (so a dropped client never aborts a
// result other waiters share) and the worker budget.  A run error is a 500
// and caches nothing.  The returned outcome — "ok", "invalid" or "error" —
// is what the program-submission metric counts.
func (s *Server) serveTask(w http.ResponseWriter, r *http.Request, t task, err error) string {
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return "invalid"
	}
	body, hit, err := s.cache.Do(r.Context(), t.key, func() ([]byte, error) {
		s.simulations.Add(1)
		res, err := t.run(sweep.WithGate(s.baseCtx, s.gate), nil)
		if err != nil {
			return nil, err
		}
		return Encode(res)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%s: %v", t.kind, err)
		return "error"
	}
	writeBody(w, body, hit)
	return "ok"
}

// runJob is the one job path, sharing the result cache with the
// synchronous routes: a cached result completes the job at once, a fresh
// one is stored for them.  It probes with Get and simulates outside
// cache.Do, so cancelling a job never aborts a synchronous request
// coalesced on the same key.  It returns the result and its key, or the
// run's error; a cancelled run's partial result comes back with its error,
// attaches to the job and never becomes the cache entry for its key.  A
// panic in the run is the attempt's error, as it is on the synchronous
// path, so the retry policy handles it instead of the process dying.
func (s *Server) runJob(ctx context.Context, t task, progress func(done, total int)) (key string, body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			key, body, err = "", nil, fmt.Errorf("%s: run panicked: %v", t.kind, p)
		}
	}()
	if p := t.begin; p != nil {
		progress(p.Done, p.Total)
	}
	if body, ok := s.cache.Get(t.key); ok {
		return t.key, body, nil
	}
	s.simulations.Add(1)
	res, err := t.run(sweep.WithGate(ctx, s.gate), progress)
	if res != nil {
		var encErr error
		if body, encErr = Encode(res); encErr != nil && err == nil {
			err = encErr
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		return "", body, err
	case err != nil:
		return "", nil, err
	}
	s.cache.Add(t.key, body)
	return t.key, body, nil
}

// jobTask builds the task for a normalized job request (see normalizeJob):
// exactly one of Program, Fuzz or Sweep is set, or Driver names a run
// driver.
func jobTask(req JobRequest) (task, error) {
	switch {
	case req.Program != nil:
		return programTask(*req.Program)
	case req.Fuzz != nil:
		return fuzzTask(*req.Fuzz)
	case req.Sweep != nil:
		return sweepTask(*req.Sweep)
	}
	d, ok := DriverByName(req.Driver)
	if !ok {
		return task{}, fmt.Errorf("job: unknown driver %q", req.Driver)
	}
	return driverTask(d, req.RunRequest)
}

// holdGate takes one token of the worker gate ctx carries and returns its
// release.  Single simulations bypass the sweep engine, which acquires the
// gate per grid point, so they take the token themselves; without a gate
// (the CLI) it is a no-op.
func holdGate(ctx context.Context) (release func(), err error) {
	g := sweep.GateFrom(ctx)
	if g == nil {
		return func() {}, nil
	}
	if err := g.Acquire(ctx); err != nil {
		return nil, err
	}
	return g.Release, nil
}
