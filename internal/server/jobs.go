package server

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"specrun/internal/cpu"
)

// Job statuses.  A job is born pending, is leased into running at once (the
// worker budget, not the queue, bounds concurrency), may bounce back to
// pending on a failed attempt, and ends in exactly one of done, failed or
// cancelled.
const (
	JobPending   = "pending"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobProgress counts a job's completed work in its kind's unit: grid
// points for a sweep, seeds for a campaign, megacycles for a program; a
// driver job goes from 0/1 to 1/1.
type JobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobView is the wire form of a job (POST /v1/jobs, GET /v1/jobs/{id}).
type JobView struct {
	ID              string          `json:"id"`
	Kind            string          `json:"kind"` // driver name, "sweep", "fuzz" (difftest and leak campaigns) or "program"
	Status          string          `json:"status"`
	Progress        JobProgress     `json:"progress"`
	Attempts        int             `json:"attempts,omitempty"` // execution leases taken so far
	Error           string          `json:"error,omitempty"`
	Result          json.RawMessage `json:"result,omitempty"` // present once done
	SubmittedAt     time.Time       `json:"submitted_at"`
	DurationSeconds float64         `json:"duration_seconds"`
}

// JobStats summarises the store for GET /v1/stats.
type JobStats struct {
	Submitted int    `json:"submitted"`
	Pending   int    `json:"pending"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	Retries   uint64 `json:"retries"` // attempts re-queued after a failure
}

// RetryPolicy governs re-execution of failed job attempts.  Every
// simulation is deterministic and content-addressed, so re-running an
// attempt is always safe (at-least-once semantics collapse to
// exactly-once results); the policy only bounds how hard the server tries.
// An attempt that exhausted its cycle budget or deadlocked is not retried
// at all: it would fail the same way every time (see retryable).
type RetryPolicy struct {
	// MaxAttempts is the total number of leases a job may consume,
	// including the first (0 selects 3; 1 disables retries).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseDelay is the backoff before the second attempt (0 = 250ms);
	// each further attempt multiplies it by retryMultiplier, capped at
	// retryMaxDelay.
	BaseDelay time.Duration `json:"base_delay,omitempty"`
	// Jitter spreads the delay by ±Jitter fraction, deterministically per
	// (job, attempt) so schedules are reproducible (0 selects 0.2;
	// negative disables).
	Jitter float64 `json:"jitter,omitempty"`
}

// Backoff growth per failed attempt, and its cap.
const (
	retryMultiplier = 2
	retryMaxDelay   = 15 * time.Second
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 250 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// delay returns the backoff after a failed attempt (attempt >= 1).  The
// jitter is a hash of (jobID, attempt), not a random draw: restarting the
// server reproduces the same schedule.
func (p RetryPolicy) delay(jobID string, attempt int) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(retryMultiplier, float64(attempt-1))
	if d > float64(retryMaxDelay) {
		d = float64(retryMaxDelay)
	}
	if p.Jitter > 0 {
		h := fnv.New64a()
		h.Write([]byte(jobID))
		h.Write([]byte{':'})
		h.Write([]byte(strconv.Itoa(attempt)))
		f := float64(h.Sum64()%2048)/1024 - 1 // [-1, +1)
		d *= 1 + f*p.Jitter
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// retryable reports whether another attempt could end differently.  A
// simulation is deterministic, so a program that exhausts its cycle budget
// or deadlocks does so on every attempt; errors.Is reaches both through
// every run path (the raw error of a program run, a sweep's errors.Join,
// the %w wrapping in core and attack).  Panics, injected faults and job
// timeouts stay retryable.
func retryable(err error) bool {
	return !errors.Is(err, cpu.ErrMaxCycles) && !errors.Is(err, cpu.ErrDeadlock)
}

// jobEvent is one SSE-observable transition: a view snapshot tagged with
// the job's monotonic sequence number (the SSE event id, so clients can
// resume with Last-Event-ID).
type jobEvent struct {
	Seq  int
	View JobView
}

type job struct {
	id          string
	kind        string
	status      string
	done, total int
	errText     string
	result      []byte
	cacheKey    string // content address of the result, when cached
	cancel      context.CancelFunc
	submitted   time.Time
	finished    time.Time

	// Durable-execution state: req re-dispatches the job on retry or
	// resume; attempt counts leases taken; nextRunAt delays a retried
	// pending job; cancelRequested marks a user DELETE (vs a server
	// shutdown); corrupt marks a journal-restored job whose request no
	// longer parses.
	req             JobRequest
	attempt         int
	nextRunAt       time.Time
	cancelRequested bool
	corrupt         bool

	// seq numbers every observable transition; watchers receive tagged
	// snapshots and are closed when the job reaches a terminal state.
	// Sends never block: a slow subscriber misses intermediate snapshots,
	// not the close.
	seq      int
	watchers []chan jobEvent
}

func (j *job) terminalStatus() bool {
	return j.status != JobRunning && j.status != JobPending
}

// notify pushes the current view to every watcher and, on a terminal
// transition, closes them (caller holds the store lock).  The sequence
// number advances even with no watchers, so SSE ids stay monotonic across
// reconnects.
func (j *job) notify() {
	j.seq++
	if len(j.watchers) == 0 {
		return
	}
	ev := jobEvent{Seq: j.seq, View: j.view()}
	for _, ch := range j.watchers {
		select {
		case ch <- ev:
		default:
		}
	}
	if j.terminalStatus() {
		for _, ch := range j.watchers {
			close(ch)
		}
		j.watchers = nil
	}
}

// maxJobs bounds the store: once exceeded, the oldest finished jobs (and
// their result bodies) are dropped.  Pending and running jobs are never
// evicted, so the store can transiently exceed the bound under extreme
// concurrency, but a long-lived server no longer accumulates every result
// ever computed.
const maxJobs = 256

// jobStore is the async-job registry: in-memory state of record, with an
// optional append-only journal that makes submissions durable across
// crashes.
type jobStore struct {
	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // submission order for listing and scheduling
	nextID    int
	submitted int // lifetime submissions (survives eviction)

	policy  RetryPolicy
	retries uint64
	// closed refuses every lease once the server has shut down, so a retry
	// timer that fires late starts nothing.
	closed bool

	// journal, when set, records every lifecycle transition (nil = memory
	// only).  Appends happen outside s.mu — the record is built under the
	// lock, written after release — so journal IO never blocks the store.
	journal *journal

	// logger receives job lifecycle transitions; onTerminal fires exactly
	// once per job, at the moment it reaches a terminal state (the server
	// feeds the specrun_jobs_total and program-submission metrics through
	// it).  Both are set at server construction, before any job exists.
	logger     *slog.Logger
	onTerminal func(kind, status string, req JobRequest)
}

func newJobStore() *jobStore {
	return &jobStore{
		jobs:   make(map[string]*job),
		policy: RetryPolicy{}.withDefaults(),
		logger: slog.New(slog.DiscardHandler),
	}
}

// terminal records a job's transition into a terminal state (caller holds
// s.mu and has already updated j).
func (s *jobStore) terminal(j *job) {
	s.logger.Info("job finished",
		"job", j.id,
		"kind", j.kind,
		"status", j.status,
		"error", j.errText,
		"attempts", j.attempt,
		"duration_ms", float64(j.finished.Sub(j.submitted).Microseconds())/1000,
	)
	if s.onTerminal != nil {
		s.onTerminal(j.kind, j.status, j.req)
	}
}

// create registers a new pending job and returns its id.  The submit record
// is fsynced: an acknowledged submission survives kill -9.
func (s *jobStore) create(kind string, req JobRequest) string {
	now := time.Now()
	s.mu.Lock()
	s.nextID++
	s.submitted++
	id := "j" + strconv.Itoa(s.nextID)
	s.jobs[id] = &job{
		id:        id,
		kind:      kind,
		status:    JobPending,
		total:     1,
		req:       req,
		submitted: now,
	}
	s.order = append(s.order, id)
	s.prune()
	s.mu.Unlock()
	s.logger.Info("job submitted", "job", id, "kind", kind)
	raw, err := json.Marshal(req)
	if err != nil {
		raw = nil
	}
	s.journal.append(journalRecord{T: recSubmit, Job: id, At: nowMilli(now), Kind: kind, Req: raw}, true)
	return id
}

// prune evicts the oldest terminal jobs past maxJobs (caller holds s.mu).
func (s *jobStore) prune() {
	for len(s.order) > maxJobs {
		evicted := false
		for i, id := range s.order {
			if s.jobs[id].terminalStatus() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything is still pending or running
		}
	}
}

// leasedJob is one granted execution lease: what the runner goroutine needs
// to dispatch its attempt.
type leasedJob struct {
	id      string
	kind    string
	attempt int
	req     JobRequest
	ctx     context.Context
	cancel  context.CancelFunc
}

// leaseNext grants a lease on the earliest-submitted pending job due by now,
// if any: the job moves to running and its attempt counter advances.
// newCtx builds the attempt's context while the lock is held, so a
// concurrent cancel always finds the cancel func.  A closed store grants
// nothing.
func (s *jobStore) leaseNext(now time.Time, newCtx func() (context.Context, context.CancelFunc)) (leasedJob, bool) {
	s.mu.Lock()
	var pick *job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.status == JobPending && !j.corrupt && !j.nextRunAt.After(now) {
			pick = j
			break
		}
	}
	if pick == nil || s.closed {
		s.mu.Unlock()
		return leasedJob{}, false
	}
	ctx, cancel := newCtx()
	pick.status = JobRunning
	pick.attempt++
	pick.cancel = cancel
	pick.notify()
	lj := leasedJob{id: pick.id, kind: pick.kind, attempt: pick.attempt, req: pick.req, ctx: ctx, cancel: cancel}
	s.mu.Unlock()
	s.logger.Info("job leased", "job", lj.id, "kind", lj.kind, "attempt", lj.attempt)
	s.journal.append(journalRecord{T: recLease, Job: lj.id, At: nowMilli(now), Attempt: lj.attempt}, false)
	return lj, true
}

// progress updates the completed/total counters of a running job.
// Watchers hear of it only when the counters change, so a stream never
// repeats a view.
func (s *jobStore) progress(id string, done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.status != JobRunning || j.done == done && j.total == total {
		return
	}
	j.done, j.total = done, total
	j.notify()
}

// watch subscribes to a job's lifecycle.  The returned channel yields
// sequence-tagged view snapshots on every transition and is closed when the
// job reaches (or was already in) a terminal state; read the final view
// with viewSeq.  The cancel function detaches an abandoned subscription.
func (s *jobStore) watch(id string) (<-chan jobEvent, func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, false
	}
	ch := make(chan jobEvent, 16)
	if j.terminalStatus() {
		close(ch) // already terminal: subscribers go straight to the final view
		return ch, func() {}, true
	}
	j.watchers = append(j.watchers, ch)
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				return
			}
		}
	}
	return ch, cancel, true
}

// finish records how one attempt ended and returns when the job's retry is
// due (zero when it is not re-queued).  An attempt ends only by returning:
// err is nil when it produced result under key, wraps context.Canceled
// when DELETE or shutdown stopped it (result is then the partial result
// the simulation finished), and is otherwise the failure.  A job that
// DELETE already cancelled keeps its status and takes the partial result.
// A failed attempt re-queues the job with backoff while attempts remain
// and the error is retryable; terminal transitions journal with fsync.
func (s *jobStore) finish(id, key string, result []byte, err error) (due time.Time) {
	now := time.Now()
	var rec *journalRecord
	fsyncRec := false
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	if j.status != JobRunning {
		// DELETE won the race: keep the cancelled status but attach the
		// partial result the runner salvaged.
		if j.status == JobCancelled && len(result) > 0 && len(j.result) == 0 {
			j.result = result
		}
		s.mu.Unlock()
		return
	}
	cancelled := errors.Is(err, context.Canceled)
	switch {
	case cancelled && !j.cancelRequested && s.journal != nil:
		// Shutdown-cancel on a durable store: leave the lease on the
		// journal so the next boot reclaims the job as pending.  This
		// process is exiting; its in-memory "running" status dies with it.
		s.mu.Unlock()
		return
	case cancelled:
		j.status = JobCancelled
		j.finished = now
		j.result = result
		rec = &journalRecord{T: recCancelled, Job: id, At: nowMilli(now)}
		fsyncRec = true
		s.terminal(j)
	case err != nil && j.attempt < s.policy.MaxAttempts && retryable(err):
		s.retries++
		j.status = JobPending
		j.errText = err.Error()
		j.nextRunAt = now.Add(s.policy.delay(id, j.attempt))
		j.cancel = nil
		due = j.nextRunAt
		rec = &journalRecord{
			T: recRetry, Job: id, At: nowMilli(now),
			Attempt: j.attempt, Error: j.errText, Next: nowMilli(j.nextRunAt),
		}
		s.logger.Warn("job attempt failed; requeued", "job", id, "attempt", j.attempt, "error", j.errText, "next_run", j.nextRunAt)
	case err != nil:
		j.status = JobFailed
		j.finished = now
		j.errText = err.Error()
		rec = &journalRecord{T: recFailed, Job: id, At: nowMilli(now), Error: j.errText}
		fsyncRec = true
		s.terminal(j)
	default:
		j.status = JobDone
		j.finished = now
		j.errText = ""
		j.done = j.total
		j.result = result
		j.cacheKey = key
		rec = &journalRecord{T: recDone, Job: id, At: nowMilli(now), Key: key}
		if len(result) <= journalInlineResultMax {
			rec.Result = result
		}
		fsyncRec = true
		s.terminal(j)
	}
	j.notify()
	s.mu.Unlock()
	s.journal.append(*rec, fsyncRec)
	return due
}

// cancelJob cancels a pending or running job.  It reports whether the id
// exists; a job already in a terminal state is left untouched.
func (s *jobStore) cancelJob(id string) (JobView, bool) {
	now := time.Now()
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	var cancel context.CancelFunc
	var rec *journalRecord
	if !j.terminalStatus() {
		j.cancelRequested = true
		j.status = JobCancelled
		j.finished = now
		cancel = j.cancel
		j.cancel = nil
		s.terminal(j)
		j.notify()
		rec = &journalRecord{T: recCancelled, Job: id, At: nowMilli(now)}
	}
	v := j.view()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if rec != nil {
		s.journal.append(*rec, true)
	}
	return v, true
}

// restore rebuilds the store from replayed journal records (called once at
// startup, before the journal is attached and before any lease) and returns
// when each restored retry is due, for the caller to start it then.  Jobs
// whose last record is a lease were running when the previous process
// died: they re-queue as pending — unless that lease was their final
// permitted attempt.  Completed jobs restore as done and are never
// re-leased; a done record without an inline result recovers it from the
// cache via lookup.  A lease or retry record without an attempt number is
// malformed and skipped, and only a done record leaves a result on its
// job.  The attempt count of a terminal record, and the error of a
// cancelled one, restore what compaction wrote (snapshotRecords), so a
// compacted journal restores the jobs it was written from.
func (s *jobStore) restore(recs []journalRecord, lookup func(key string) ([]byte, bool)) (due []time.Time) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		j := s.jobs[rec.Job]
		if rec.T == recSubmit {
			if j != nil {
				continue // duplicate submit: first record wins
			}
			j = &job{
				id:        rec.Job,
				kind:      rec.Kind,
				status:    JobPending,
				total:     1,
				submitted: time.UnixMilli(rec.At),
			}
			if len(rec.Req) == 0 || json.Unmarshal(rec.Req, &j.req) != nil {
				j.corrupt = true
				j.status = JobFailed
				j.finished = now
				j.errText = "journal: job request no longer parses"
				s.logger.Warn("journal: dropping unreadable job request", "job", rec.Job)
			}
			s.jobs[rec.Job] = j
			s.order = append(s.order, rec.Job)
			s.submitted++
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "j")); err == nil && n > s.nextID {
				s.nextID = n
			}
			continue
		}
		switch {
		case j == nil || j.corrupt:
			continue
		case rec.T == recLease || rec.T == recRetry:
			if rec.Attempt < 1 {
				continue // malformed: attempts count from 1
			}
		case rec.T != recDone && rec.T != recFailed && rec.T != recCancelled:
			continue // foreign record type
		}
		if rec.T != recDone {
			j.result, j.cacheKey = nil, ""
		}
		if rec.Attempt > 0 {
			j.attempt = rec.Attempt
		}
		switch rec.T {
		case recLease:
			if j.attempt >= s.policy.MaxAttempts {
				j.status = JobFailed
				j.finished = now
				j.errText = "crashed during final attempt " + strconv.Itoa(j.attempt)
			} else {
				j.status = JobPending
				j.errText = "interrupted on attempt " + strconv.Itoa(j.attempt)
				j.nextRunAt = time.Time{}
			}
		case recRetry:
			j.status = JobPending
			j.errText = rec.Error
			j.nextRunAt = time.UnixMilli(rec.Next)
		case recDone:
			j.status = JobDone
			j.finished = time.UnixMilli(rec.At)
			j.errText = ""
			j.done = j.total
			j.cacheKey = rec.Key
			j.result = rec.Result
			if len(j.result) == 0 && rec.Key != "" && lookup != nil {
				if b, ok := lookup(rec.Key); ok {
					j.result = b
				}
			}
		case recFailed:
			j.status = JobFailed
			j.finished = time.UnixMilli(rec.At)
			j.errText = rec.Error
		case recCancelled:
			j.status = JobCancelled
			j.finished = time.UnixMilli(rec.At)
			if rec.Error != "" {
				j.errText = rec.Error
			}
		}
	}
	s.prune()
	var pending, terminalCount int
	for _, j := range s.jobs {
		if j.status == JobPending {
			pending++
			if !j.nextRunAt.IsZero() {
				due = append(due, j.nextRunAt)
			}
		} else if j.terminalStatus() {
			terminalCount++
		}
	}
	if len(s.jobs) > 0 {
		s.logger.Info("journal: restored jobs", "total", len(s.jobs), "pending", pending, "terminal", terminalCount)
	}
	return due
}

// snapshotRecords serialises the store back into minimal journal records —
// the compaction image written at startup, which drops evicted jobs and
// collapses each survivor to at most two records.  A terminal record
// carries the job's attempt count, and a cancelled one its error, so that
// restoring the image gives back the same jobs.
func (s *jobStore) snapshotRecords() []journalRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]journalRecord, 0, 2*len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		raw, err := json.Marshal(j.req)
		if err != nil {
			raw = nil
		}
		out = append(out, journalRecord{T: recSubmit, Job: id, At: nowMilli(j.submitted), Kind: j.kind, Req: raw})
		switch j.status {
		case JobPending:
			if j.attempt > 0 {
				out = append(out, journalRecord{
					T: recRetry, Job: id, At: nowMilli(j.submitted),
					Attempt: j.attempt, Error: j.errText, Next: nowMilli(j.nextRunAt),
				})
			}
		case JobRunning:
			out = append(out, journalRecord{T: recLease, Job: id, Attempt: j.attempt})
		case JobDone:
			rec := journalRecord{T: recDone, Job: id, At: nowMilli(j.finished), Attempt: j.attempt, Key: j.cacheKey}
			if len(j.result) <= journalInlineResultMax {
				rec.Result = j.result
			}
			out = append(out, rec)
		case JobFailed:
			out = append(out, journalRecord{T: recFailed, Job: id, At: nowMilli(j.finished), Attempt: j.attempt, Error: j.errText})
		case JobCancelled:
			out = append(out, journalRecord{T: recCancelled, Job: id, At: nowMilli(j.finished), Attempt: j.attempt, Error: j.errText})
		}
	}
	return out
}

// close refuses every further lease and closes the journal (Server.Close).
func (s *jobStore) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.journal.close()
}

// journalCounters reports (records appended, write errors) for metrics.
func (s *jobStore) journalCounters() (uint64, uint64) {
	if s.journal == nil {
		return 0, 0
	}
	return s.journal.records.Load(), s.journal.writeErrs.Load()
}

// view snapshots one job (caller holds s.mu).
func (j *job) view() JobView {
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return JobView{
		ID:              j.id,
		Kind:            j.kind,
		Status:          j.status,
		Progress:        JobProgress{Done: j.done, Total: j.total},
		Attempts:        j.attempt,
		Error:           j.errText,
		Result:          json.RawMessage(j.result),
		SubmittedAt:     j.submitted,
		DurationSeconds: end.Sub(j.submitted).Seconds(),
	}
}

// get snapshots a job by id.
func (s *jobStore) get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// viewSeq snapshots a job together with its event sequence number (the SSE
// handler's Last-Event-ID replay anchor).
func (s *jobStore) viewSeq(id string) (JobView, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, 0, false
	}
	return j.view(), j.seq, true
}

// list snapshots every job in submission order, without results (a listing
// of large sweep results would dwarf the useful payload).
func (s *jobStore) list() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		v := s.jobs[id].view()
		v.Result = nil
		out = append(out, v)
	}
	return out
}

// stats summarises the store.
func (s *jobStore) stats() JobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStats{Submitted: s.submitted, Retries: s.retries}
	for _, j := range s.jobs {
		switch j.status {
		case JobPending:
			st.Pending++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		}
	}
	return st
}
