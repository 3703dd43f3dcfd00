package sweep

import "sync"

// Local hands out per-worker scratch state for sweep jobs — typically a
// reusable simulator harness (the difftest and leak runner caches).  Jobs
// call Get at entry and Put on exit; with N workers at most N
// values are ever live, so an expensive-to-build value (a machine with its
// caches, predictor tables and uop pool) is constructed roughly once per
// worker instead of once per job.
//
// Local is a thin typed wrapper over sync.Pool, which also gives the right
// behaviour for bursty servers: values idle across GC cycles are released
// rather than pinned forever.  Results must not depend on whether Get
// returns a fresh or a reused value — reusable state has to reset itself to
// a canonical baseline, which is exactly the contract machine Reset methods
// pin with byte-identical-statistics tests.
type Local[T any] struct {
	pool sync.Pool
	newf func() T
}

// NewLocal builds a Local whose Get falls back to newf when no reusable
// value is available.
func NewLocal[T any](newf func() T) *Local[T] {
	return &Local[T]{newf: newf}
}

// Get returns a reused value, or a freshly built one.
func (l *Local[T]) Get() T {
	if v := l.pool.Get(); v != nil {
		return v.(T)
	}
	return l.newf()
}

// Put returns a value for reuse by later jobs.
func (l *Local[T]) Put(v T) { l.pool.Put(v) }
