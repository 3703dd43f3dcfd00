package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specrun/internal/cpu"
)

// testCtx is the lease-context factory store-level tests use.
func testCtx() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// TestRetryBackoffSchedule pins the backoff math: exponential growth from
// BaseDelay, capped at retryMaxDelay, with deterministic bounded jitter — the
// whole schedule is a pure function of (policy, job, attempt), so a
// restarted server recomputes the identical plan.
func TestRetryBackoffSchedule(t *testing.T) {
	noJitter := RetryPolicy{Jitter: -1}.withDefaults()
	for i, want := range []time.Duration{
		250 * time.Millisecond,
		500 * time.Millisecond,
		1 * time.Second,
		2 * time.Second,
		4 * time.Second,
		8 * time.Second,
		15 * time.Second, // capped: 16s > retryMaxDelay
		15 * time.Second,
	} {
		if got := noJitter.delay("j1", i+1); got != want {
			t.Fatalf("attempt %d: delay = %v, want %v", i+1, got, want)
		}
	}

	jittered := RetryPolicy{}.withDefaults()
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := jittered.delay("j7", attempt)
		d2 := jittered.delay("j7", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter is not deterministic (%v vs %v)", attempt, d1, d2)
		}
		base := noJitter.delay("j7", attempt)
		lo := time.Duration(float64(base) * (1 - jittered.Jitter))
		hi := time.Duration(float64(base) * (1 + jittered.Jitter))
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %v outside jitter band [%v, %v]", attempt, d1, lo, hi)
		}
	}
	// Different jobs get different jitter (decorrelated thundering herd).
	if jittered.delay("j1", 3) == jittered.delay("j2", 3) {
		t.Fatal("jitter does not vary across jobs")
	}
}

// TestFinishStaleAttempt: an attempt whose job DELETE already cancelled
// reports late; its report must not move the job out of cancelled — only
// the partial result it salvaged attaches, once — and later progress is
// dropped.
func TestFinishStaleAttempt(t *testing.T) {
	s := newJobStore()
	s.policy = RetryPolicy{Jitter: -1}.withDefaults()

	id := s.create("fig9", JobRequest{})
	if _, ok := s.leaseNext(time.Now(), testCtx); !ok {
		t.Fatal("no lease")
	}
	s.cancelJob(id)

	// The cancelled attempt reports success late: the status stays, the
	// salvaged body attaches, and nothing is re-queued.
	if at := s.finish(id, "key", []byte(`{"partial":true}`), nil); !at.IsZero() {
		t.Fatalf("stale finish re-queued the job for %v", at)
	}
	if v, _ := s.get(id); v.Status != JobCancelled || string(v.Result) != `{"partial":true}` {
		t.Fatalf("stale finish: %+v", v)
	}
	// A second late report cannot replace it, nor a failure revive the job.
	s.finish(id, "", []byte(`{"again":true}`), errors.New("boom"))
	if v, _ := s.get(id); v.Status != JobCancelled || string(v.Result) != `{"partial":true}` || v.Error != "" {
		t.Fatalf("second stale finish: %+v", v)
	}
	// Stale progress after terminal is also dropped.
	s.progress(id, 5, 10)
	if v, _ := s.get(id); v.Progress.Done == 5 {
		t.Fatalf("progress applied after terminal: %+v", v)
	}
}

// TestProgressNotifiesOnChange: watchers hear only a changed count, so an
// SSE stream never repeats a view.
func TestProgressNotifiesOnChange(t *testing.T) {
	s := newJobStore()
	id := s.create("program", JobRequest{})
	if _, ok := s.leaseNext(time.Now(), testCtx); !ok {
		t.Fatal("no lease")
	}
	ch, stop, _ := s.watch(id)
	defer stop()
	events := func() (n int) {
		for {
			select {
			case <-ch:
				n++
			default:
				return n
			}
		}
	}
	s.progress(id, 0, 200)
	if n := events(); n != 1 {
		t.Fatalf("first report: %d events, want 1", n)
	}
	s.progress(id, 0, 200)
	if n := events(); n != 0 {
		t.Fatalf("repeated report: %d events, want 0", n)
	}
	s.progress(id, 1, 200)
	if n := events(); n != 1 {
		t.Fatalf("changed report: %d events, want 1", n)
	}
}

// TestFailedAttemptRequeued: a failed attempt re-queues with backoff and a
// later attempt can still succeed, clearing the transient error.
func TestFailedAttemptRequeued(t *testing.T) {
	s := newJobStore()
	s.policy = RetryPolicy{Jitter: -1}.withDefaults()

	t0 := time.Now()
	id := s.create("fig9", JobRequest{})
	s.leaseNext(t0, testCtx)
	s.finish(id, "", nil, errors.New("injected fault"))

	v, _ := s.get(id)
	if v.Status != JobPending || v.Error != "injected fault" {
		t.Fatalf("after failed attempt: %+v", v)
	}
	if _, ok := s.leaseNext(t0, testCtx); ok {
		t.Fatal("retry leased before its backoff elapsed")
	}
	lj, ok := s.leaseNext(t0.Add(time.Hour), testCtx)
	if !ok || lj.attempt != 2 {
		t.Fatalf("retry lease: %+v %v", lj, ok)
	}
	s.finish(id, "", []byte(`{}`), nil)
	v, _ = s.get(id)
	if v.Status != JobDone || v.Error != "" || v.Attempts != 2 {
		t.Fatalf("after recovery: %+v", v)
	}
}

// TestDeterministicFailureFinal: an attempt that exhausted its cycle budget
// or deadlocked fails the job at once, however its error was wrapped,
// while any other failure still re-queues.
func TestDeterministicFailureFinal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		err   error
		final bool
	}{
		{"max-cycles", cpu.ErrMaxCycles, true},
		{"deadlock-wrapped", fmt.Errorf("%w at cycle 7", cpu.ErrDeadlock), true},
		{"sweep-joined", errors.Join(errors.New("point 1: ok"), fmt.Errorf("point 2: %w", cpu.ErrMaxCycles)), true},
		{"injected", errors.New("faultinject: journal.append: injected fault"), false},
		{"timeout", context.DeadlineExceeded, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newJobStore()
			s.policy = RetryPolicy{Jitter: -1}.withDefaults()
			id := s.create("program", JobRequest{})
			s.leaseNext(time.Now(), testCtx)
			s.finish(id, "", nil, tc.err)
			v, _ := s.get(id)
			want := JobPending
			if tc.final {
				want = JobFailed
			}
			if v.Status != want || v.Attempts != 1 || v.Error != tc.err.Error() {
				t.Fatalf("after %v: %+v, want %s after 1 attempt", tc.err, v, want)
			}
		})
	}
}

// TestJournalRestore is the durability contract at the store level: every
// lifecycle shape — done, permanently failed, cancelled, never-leased
// pending, and leased-then-crashed — replays from the journal into the
// state the next boot needs, and compaction preserves it.
func TestJournalRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	logger := slog.New(slog.DiscardHandler)

	jnl, recs, err := openJournal(path, logger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	a := newJobStore()
	a.policy = RetryPolicy{MaxAttempts: 2, Jitter: -1}.withDefaults()
	a.journal = jnl

	doneID := a.create("fig9", JobRequest{RunRequest: RunRequest{Workers: 1}})
	a.leaseNext(time.Now(), testCtx)
	a.finish(doneID, "cachekey", []byte(`{"answer":42}`), nil)

	failedID := a.create("fig10", JobRequest{})
	for i := 0; i < 2; i++ {
		if _, ok := a.leaseNext(time.Now().Add(time.Hour), testCtx); !ok {
			t.Fatalf("lease %d of failing job", i)
		}
		a.finish(failedID, "", nil, errors.New("boom"))
	}

	cancelledID := a.create("fig9", JobRequest{})
	a.cancelJob(cancelledID)

	crashedID := a.create("fig9", JobRequest{})
	if lj, ok := a.leaseNext(time.Now().Add(2*time.Hour), testCtx); !ok || lj.id != crashedID {
		t.Fatalf("lease of crash job: %+v %v", lj, ok)
	}
	pendingID := a.create("defense", JobRequest{})
	// Crash: nothing more is journaled for crashedID after its lease.
	jnl.close()

	// Reboot: replay, restore, compact, replay again.
	for round := 0; round < 2; round++ {
		jnl2, recs2, err := openJournal(path, logger)
		if err != nil {
			t.Fatal(err)
		}
		b := newJobStore()
		b.policy = a.policy
		b.restore(recs2, nil)

		v, ok := b.get(doneID)
		if !ok || v.Status != JobDone || string(v.Result) != `{"answer":42}` {
			t.Fatalf("round %d: done job: %+v %v", round, v, ok)
		}
		if v, _ := b.get(failedID); v.Status != JobFailed || v.Error != "boom" {
			t.Fatalf("round %d: failed job: %+v", round, v)
		}
		if v, _ := b.get(cancelledID); v.Status != JobCancelled {
			t.Fatalf("round %d: cancelled job: %+v", round, v)
		}
		if v, _ := b.get(pendingID); v.Status != JobPending || v.Attempts != 0 {
			t.Fatalf("round %d: pending job: %+v", round, v)
		}
		// The crashed lease re-queues with its attempt preserved.
		if v, _ := b.get(crashedID); v.Status != JobPending || v.Attempts != 1 {
			t.Fatalf("round %d: crashed job: %+v", round, v)
		}
		// Ids continue past the replayed maximum: no reuse after restart.
		if fresh := b.create("fig9", JobRequest{}); fresh == crashedID || fresh == pendingID {
			t.Fatalf("round %d: id %s reused after restore", round, fresh)
		}
		// Done jobs are never re-leased: only the two pendings (plus the
		// fresh one) are leasable.
		leased := map[string]bool{}
		for {
			lj, ok := b.leaseNext(time.Now().Add(24*time.Hour), testCtx)
			if !ok {
				break
			}
			leased[lj.id] = true
		}
		if leased[doneID] || leased[failedID] || leased[cancelledID] {
			t.Fatalf("round %d: re-leased a terminal job: %v", round, leased)
		}
		if !leased[pendingID] || !leased[crashedID] {
			t.Fatalf("round %d: pending work not re-leased: %v", round, leased)
		}

		if round == 0 {
			// Compact and loop: the rewritten journal must restore identically.
			b2 := newJobStore()
			b2.policy = a.policy
			b2.restore(recs2, nil)
			if err := jnl2.rewrite(b2.snapshotRecords()); err != nil {
				t.Fatal(err)
			}
		}
		jnl2.close()
	}
}

// TestJournalTornTail: a kill -9 mid-append leaves a torn final line; the
// journal must replay everything before it and keep working.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	logger := slog.New(slog.DiscardHandler)

	jnl, _, err := openJournal(path, logger)
	if err != nil {
		t.Fatal(err)
	}
	s := newJobStore()
	s.journal = jnl
	id := s.create("fig9", JobRequest{})
	jnl.close()

	// Simulate the torn append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"done","job":"` + id + `","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jnl2, recs, err := openJournal(path, logger)
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	defer jnl2.close()
	if len(recs) != 1 || recs[0].T != recSubmit || recs[0].Job != id {
		t.Fatalf("replayed %+v, want the one intact submit", recs)
	}
	b := newJobStore()
	b.restore(recs, nil)
	if v, _ := b.get(id); v.Status != JobPending {
		t.Fatalf("restored job: %+v (the torn done record must not apply)", v)
	}
}

// TestBodyLimit413 pins the request-body cap: an over-limit POST is
// rejected with 413, not 400, and the server keeps serving.
func TestBodyLimit413(t *testing.T) {
	_, ts := newTestServer(t)
	huge := `{"driver": "fig9", "config": {"pad": "` + strings.Repeat("x", maxBodyBytes+1024) + `"}}`
	for _, ep := range []string{"/v1/jobs", "/v1/run/fig9", "/v1/sweep", "/v1/run/fuzz", "/v1/run/program"} {
		code, _, body := do(t, "POST", ts.URL+ep, huge)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with %d-byte body: %d %.120s", ep, len(huge), code, body)
		}
	}
	// A normal request still works afterwards.
	if code, _, body := do(t, "POST", ts.URL+"/v1/run/fig9", "{}"); code != http.StatusOK {
		t.Fatalf("run after oversized bodies: %d %s", code, body)
	}
}

// TestSSEEventIDsAndReplay pins the SSE resume contract: events carry
// monotonic ids, a reconnect with Last-Event-ID below the terminal id
// replays exactly the terminal event, and a reconnect at the terminal id
// replays nothing.
func TestSSEEventIDsAndReplay(t *testing.T) {
	_, ts := newTestServer(t)

	jobBody, _ := json.Marshal(map[string]any{"program": map[string]any{"asm": "halt"}})
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", string(jobBody))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, view.ID)

	// First subscription to the finished job: exactly one terminal event,
	// carrying an id.
	ids, names := readSSEWithIDs(t, ts.URL+"/v1/jobs/"+view.ID+"/events", "")
	if len(names) != 1 || names[0] != JobDone {
		t.Fatalf("events = %v, want single %q", names, JobDone)
	}
	if len(ids) != 1 || ids[0] == "" {
		t.Fatalf("terminal event ids = %v, want one nonempty id", ids)
	}
	term := ids[0]

	// Reconnect having missed the terminal event: it replays, same id.
	ids2, names2 := readSSEWithIDs(t, ts.URL+"/v1/jobs/"+view.ID+"/events", "0")
	if len(names2) != 1 || names2[0] != JobDone || ids2[0] != term {
		t.Fatalf("replay = %v/%v, want %q with id %s", names2, ids2, JobDone, term)
	}
	// Reconnect having already seen it: empty stream, clean close.
	ids3, names3 := readSSEWithIDs(t, ts.URL+"/v1/jobs/"+view.ID+"/events", term)
	if len(names3) != 0 || len(ids3) != 0 {
		t.Fatalf("caught-up reconnect replayed %v/%v, want nothing", names3, ids3)
	}
}

// readSSEWithIDs consumes one SSE stream, returning parallel id and event
// name slices.
func readSSEWithIDs(t *testing.T, url, lastEventID string) (ids, names []string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var curID string
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "id: "); ok {
			curID = after
		}
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			ids = append(ids, curID)
			names = append(names, after)
		}
	}
	return ids, names
}

// TestSSEWatcherCleanup: a subscriber that disconnects mid-job is detached
// from the store — no watcher channels leak while the job keeps running.
func TestSSEWatcherCleanup(t *testing.T) {
	s, ts := newTestServer(t)

	// A long fuzz campaign keeps the job running while clients come and go.
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", `{"fuzz": {"seeds": 4000, "len": 64}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}

	watchers := func() int {
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		j, ok := s.jobs.jobs[view.ID]
		if !ok {
			return -1
		}
		return len(j.watchers)
	}

	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "watcher attached", func() bool { return watchers() >= 1 || terminalJobStatus(mustView(t, ts.URL, view.ID).Status) })
		cancel()
		resp.Body.Close()
		waitFor(t, fmt.Sprintf("watcher %d detached", i), func() bool { return watchers() <= 0 })
	}
	if n := s.sseActive.Load(); n != 0 {
		t.Fatalf("sse_streams_active = %d after disconnects, want 0", n)
	}
	do(t, "DELETE", ts.URL+"/v1/jobs/"+view.ID, "")
}

func mustView(t *testing.T, base, id string) JobView {
	t.Helper()
	_, _, body := do(t, "GET", base+"/v1/jobs/"+id, "")
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRestoredRetryStartsWhenDue: a job restored from a retry record whose
// backoff has not elapsed stays pending until it does; then its timer, not
// a periodic tick, starts the next attempt.
func TestRestoredRetryStartsWhenDue(t *testing.T) {
	dir := t.TempDir()
	req, err := json.Marshal(JobRequest{Driver: "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	due := time.Now().Add(300 * time.Millisecond)
	var jnl []byte
	for _, r := range []journalRecord{
		{T: recSubmit, Job: "j1", At: nowMilli(time.Now()), Kind: "fig9", Req: req},
		{T: recLease, Job: "j1", Attempt: 1},
		{T: recRetry, Job: "j1", Attempt: 1, Error: "boom", Next: nowMilli(due)},
	} {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		jnl = append(append(jnl, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), jnl, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{DataDir: dir, Logger: slog.New(slog.DiscardHandler)})
	defer s.Close()
	for {
		v, _ := s.jobs.get("j1")
		if !time.Now().Before(due.Add(-10 * time.Millisecond)) {
			break
		}
		if v.Status != JobPending || v.Attempts != 1 {
			t.Fatalf("before its backoff elapsed: %s after %d attempts, want pending after 1", v.Status, v.Attempts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, "the restored retry to finish", func() bool {
		v, _ := s.jobs.get("j1")
		return terminalJobStatus(v.Status)
	})
	if v, _ := s.jobs.get("j1"); v.Status != JobDone || v.Attempts != 2 {
		t.Fatalf("restored retry: %s after %d attempts (%s), want done after 2", v.Status, v.Attempts, v.Error)
	}
}

// TestQueuedJobsRunOnce: with no job timeout, a job queued behind the
// worker gate has no clock running against it.  Eight Fig. 7 jobs, each
// with its own ROB size and so its own simulation, wait behind one worker
// and all finish on their first attempt.
func TestQueuedJobsRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("eight serial Fig. 7 simulations")
	}
	_, ts := newTestServerOpts(t, Options{Workers: 1})
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, submitJob(t, ts.URL, fmt.Sprintf(`{"driver": "ipc", "config": {"rob_size": %d}}`, 64+16*i)))
	}
	for _, id := range ids {
		if v := pollJob(t, ts.URL, id); v.Status != JobDone || v.Attempts != 1 {
			t.Fatalf("queued job %s: %s after %d attempts (%s), want done after 1", id, v.Status, v.Attempts, v.Error)
		}
	}
	if st := getStats(t, ts.URL).Jobs; st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
}
