package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specrun/internal/faultinject"
)

// chaosSpec is the campaign the chaos suite runs everywhere: big enough to
// be killed mid-flight, small enough to finish in test time, and — like
// every campaign — a deterministic function of its spec.
const chaosSpec = `{"fuzz": {"seeds": 500, "len": 40, "workers": 2}}`

func chaosServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{
		Workers: 2,
		DataDir: dir,
		Logger:  slog.New(slog.DiscardHandler),
	})
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// TestChaosCrashRestartByteIdentity is the PR's central robustness claim:
// with fault injection corrupting disk writes, fsyncs and journal appends,
// and the server process "killed" mid-campaign and restarted over the same
// data dir, the finished job's report is byte-identical to a clean run on a
// pristine server — at-least-once execution of deterministic simulations
// collapses to exactly-once results.
func TestChaosCrashRestartByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos campaign; CI runs it as a dedicated step")
	}
	// Reference: a faultless, memoryless run of the same campaign.
	_, refTS := newTestServer(t)
	var refReq map[string]json.RawMessage
	if err := json.Unmarshal([]byte(chaosSpec), &refReq); err != nil {
		t.Fatal(err)
	}
	code, _, ref := do(t, "POST", refTS.URL+"/v1/run/fuzz", string(refReq["fuzz"]))
	if code != http.StatusOK {
		t.Fatalf("reference run: %d %s", code, ref)
	}

	// Chaos plan: deterministic seed, storage-layer faults firing roughly
	// one hit in four.  Correctness must not depend on any of these IOs.
	faultinject.Enable(faultinject.Config{
		Seed: 42,
		Points: map[faultinject.Point]faultinject.PointConfig{
			faultinject.DiskWrite:    {First: 1, Rate: 4},
			faultinject.DiskRead:     {Rate: 4},
			faultinject.Fsync:        {Rate: 4},
			faultinject.JournalWrite: {Rate: 8},
		},
	})
	defer faultinject.Disable()

	dir := t.TempDir()
	s1, ts1 := chaosServer(t, dir)
	code, _, body := do(t, "POST", ts1.URL+"/v1/jobs", chaosSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	// Let the campaign get properly under way, then crash the server.
	waitFor(t, "campaign progress before crash", func() bool {
		v := mustView(t, ts1.URL, view.ID)
		return v.Progress.Done > 0 || terminalJobStatus(v.Status)
	})
	ts1.Close()
	s1.Close()

	// Restart over the same data dir: the journaled lease is reclaimed and
	// the job re-queued with its attempt counted.
	s2, ts2 := chaosServer(t, dir)
	if v, ok := s2.jobs.get(view.ID); !ok {
		t.Fatal("job lost across restart")
	} else if terminalJobStatus(v.Status) && v.Status != JobDone {
		t.Fatalf("job restored as %+v", v)
	}
	final := pollJob(t, ts2.URL, view.ID)
	if final.Status != JobDone {
		t.Fatalf("after restart: %+v", final)
	}
	code, _, got := do(t, "GET", ts2.URL+"/v1/jobs/"+view.ID+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, got)
	}
	if string(got) != string(ref) {
		t.Fatalf("chaos result diverged from clean run:\n chaos: %.200s...\n clean: %.200s...", got, ref)
	}
	if faultinject.Fired() == 0 {
		t.Fatal("fault plan never fired — the chaos run was not actually chaotic")
	}
	// More traffic while faults still fire, until at least one entry lands
	// on disk — failed writes stay memory-only, successful ones must verify.
	for i := 0; i < 12; i++ {
		if d := s2.cache.Stats().Disk; d != nil && d.Writes > 0 {
			break
		}
		req := fmt.Sprintf(`{"config": {"rob_size": %d}}`, 64+16*i)
		if code, _, b := do(t, "POST", ts2.URL+"/v1/run/fig9", req); code != http.StatusOK {
			t.Fatalf("run under faults: %d %s", code, b)
		}
	}
	if d := s2.cache.Stats().Disk; d == nil || d.Writes == 0 {
		t.Fatalf("no disk write succeeded under the fault plan: %+v", s2.cache.Stats().Disk)
	}
	ts2.Close()
	s2.Close()

	// Third boot, faults off: the finished job must be served from the
	// journal/cache without re-running anything.
	faultinject.Disable()
	s3, ts3 := chaosServer(t, dir)
	defer s3.Close()
	defer ts3.Close()
	code, _, got3 := do(t, "GET", ts3.URL+"/v1/jobs/"+view.ID+"/result", "")
	if code != http.StatusOK || string(got3) != string(ref) {
		t.Fatalf("third boot result: %d (identical=%v)", code, string(got3) == string(ref))
	}
	if n := s3.simulations.Load(); n != 0 {
		t.Fatalf("third boot ran %d simulations to serve a journaled result", n)
	}

	// Finally, the data dir itself must be clean: despite the injected
	// write/fsync failures, atomic tmp+rename means every entry that made
	// it into the cache directory verifies, and nothing was quarantined.
	verifyDiskEntries(t, filepath.Join(dir, "cache"))
}

// verifyDiskEntries checks every persisted cache entry against its embedded
// checksum and asserts the quarantine directory is empty.
func verifyDiskEntries(t *testing.T, cacheDir string) {
	t.Helper()
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatalf("cache dir unreadable: %v", err)
	}
	var files int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(cacheDir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if len(raw) < sha256.Size {
			t.Fatalf("entry %s truncated below checksum length", e.Name())
		}
		if sha256.Sum256(raw[sha256.Size:]) != [sha256.Size]byte(raw[:sha256.Size]) {
			t.Fatalf("entry %s fails checksum verification", e.Name())
		}
		files++
	}
	if files == 0 {
		t.Fatal("no cache entries survived the chaos run")
	}
	if quar, err := os.ReadDir(filepath.Join(cacheDir, "quarantine")); err == nil && len(quar) > 0 {
		t.Fatalf("%d entries quarantined during the chaos run", len(quar))
	}
}

// TestRestartServesFromDiskCache pins the durability of the cache tier
// itself: a synchronous result computed before a restart is answered
// byte-identically after it, as a disk hit, with no simulation run.
func TestRestartServesFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := chaosServer(t, dir)
	code, _, ref := do(t, "POST", ts1.URL+"/v1/run/fig9", "{}")
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, ref)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := chaosServer(t, dir)
	defer s2.Close()
	defer ts2.Close()
	code, hdr, got := do(t, "POST", ts2.URL+"/v1/run/fig9", "{}")
	if code != http.StatusOK || string(got) != string(ref) {
		t.Fatalf("after restart: %d (identical=%v)", code, string(got) == string(ref))
	}
	if hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q after restart, want HIT", hdr.Get("X-Cache"))
	}
	st := s2.cache.Stats()
	if st.Disk == nil || st.Disk.Hits == 0 {
		t.Fatalf("disk tier did not serve the hit: %+v", st.Disk)
	}
	if n := s2.simulations.Load(); n != 0 {
		t.Fatalf("restarted server re-ran %d simulations for a cached key", n)
	}
}

// TestFaultsInertWhenDisabled proves the chaos harness costs nothing when
// off: with no plan installed every fault point is a no-op and a full
// service round trip fires zero faults.
func TestFaultsInertWhenDisabled(t *testing.T) {
	if faultinject.Active() {
		t.Fatal("a fault plan leaked in from another test")
	}
	before := faultinject.Fired()
	dir := t.TempDir()
	s, ts := chaosServer(t, dir)
	defer s.Close()
	defer ts.Close()
	if code, _, body := do(t, "POST", ts.URL+"/v1/run/fig9", "{}"); code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	if got := faultinject.Fired() - before; got != 0 {
		t.Fatalf("%d faults fired with no plan installed", got)
	}
	if st := s.cache.Stats(); st.Disk == nil || st.Disk.Writes == 0 || st.Disk.WriteErrors != 0 {
		t.Fatalf("disk tier unhealthy without faults: %+v", st.Disk)
	}
}

// TestInjectedWorkerPanicsRetried: the chaos contract at the job level.  A
// worker panic injected into the first attempt of a Fig. 7 job fails that
// attempt, the retry policy re-runs the whole job once its backoff
// elapses, and the result is byte-identical to a fault-free synchronous
// run.
func TestInjectedWorkerPanicsRetried(t *testing.T) {
	_, refTS := newTestServer(t)
	code, _, ref := do(t, "POST", refTS.URL+"/v1/run/ipc", "{}")
	if code != http.StatusOK {
		t.Fatalf("reference run: %d %s", code, ref)
	}

	faultinject.Enable(faultinject.Config{Points: map[faultinject.Point]faultinject.PointConfig{
		faultinject.WorkerPanic: {First: 1},
	}})
	defer faultinject.Disable()
	_, ts := newTestServerOpts(t, Options{Retry: RetryPolicy{BaseDelay: 10 * time.Millisecond, Jitter: -1}})
	id := submitJob(t, ts.URL, `{"driver": "ipc"}`)
	if v := pollJob(t, ts.URL, id); v.Status != JobDone || v.Attempts != 2 {
		t.Fatalf("job after an injected panic: %s after %d attempts (%.200s), want done after 2", v.Status, v.Attempts, v.Error)
	}
	code, _, got := do(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK || string(got) != string(ref) {
		t.Fatalf("retried result: %d, identical to the synchronous body: %v", code, string(got) == string(ref))
	}
	if st := getStats(t, ts.URL).Jobs; st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
}

// TestRetryExhaustsMaxAttempts: a retryable failure that recurs on every
// attempt re-runs the job, each retry started by its backoff timer, until
// MaxAttempts; the job then fails with the last attempt's error.
func TestRetryExhaustsMaxAttempts(t *testing.T) {
	faultinject.Enable(faultinject.Config{Points: map[faultinject.Point]faultinject.PointConfig{
		faultinject.WorkerPanic: {Rate: 1}, // every hit
	}})
	defer faultinject.Disable()
	_, ts := newTestServerOpts(t, Options{Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Jitter: -1}})
	id := submitJob(t, ts.URL, `{"driver": "ipc"}`)
	if v := pollJob(t, ts.URL, id); v.Status != JobFailed || v.Attempts != 3 || !strings.Contains(v.Error, "injected worker panic") {
		t.Fatalf("job failing on every attempt: %s after %d attempts (%.200s), want failed after 3", v.Status, v.Attempts, v.Error)
	}
	if st := getStats(t, ts.URL).Jobs; st.Retries != 2 || st.Failed != 1 {
		t.Fatalf("stats: %+v, want 2 retries and 1 failed job", st)
	}
}

// TestRetryTimerAfterCloseStartsNothing: a job backing off when the server
// closes stays pending on the same attempt after its retry timer fires;
// the closed store grants no lease.
func TestRetryTimerAfterCloseStartsNothing(t *testing.T) {
	faultinject.Enable(faultinject.Config{Points: map[faultinject.Point]faultinject.PointConfig{
		faultinject.WorkerPanic: {First: 1},
	}})
	defer faultinject.Disable()
	s := New(Options{Retry: RetryPolicy{BaseDelay: 300 * time.Millisecond, Jitter: -1}, Logger: slog.New(slog.DiscardHandler)})
	view, err := s.startJob(JobRequest{Driver: "ipc"})
	if err != nil {
		t.Fatal(err)
	}
	var due time.Time
	waitFor(t, "the first attempt to fail", func() bool {
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		j := s.jobs.jobs[view.ID]
		due = j.nextRunAt
		return j.status == JobPending && j.attempt == 1
	})
	s.Close()
	time.Sleep(time.Until(due) + 200*time.Millisecond)
	if v, _ := s.jobs.get(view.ID); v.Status != JobPending || v.Attempts != 1 {
		t.Fatalf("after Close and the retry's due time: %s after %d attempts, want pending after 1", v.Status, v.Attempts)
	}
	if _, ok := s.jobs.leaseNext(time.Now(), testCtx); ok {
		t.Fatal("a closed store granted a lease")
	}
}
