package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"specrun/internal/attack"
	"specrun/internal/core"
)

// newTestServer starts a fresh service over httptest.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerOpts(t, Options{})
}

// newTestServerOpts starts a fresh service with opts over httptest.
func newTestServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues one request and returns the status, headers and body.
func do(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestConfigEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := do(t, "GET", ts.URL+"/v1/config", "")
	if code != http.StatusOK {
		t.Fatalf("config: %d %s", code, body)
	}
	var resp ConfigResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Config.ROBSize != 256 || !strings.Contains(resp.Table1, "Table 1") {
		t.Fatalf("config body: rob=%d table1=%q", resp.Config.ROBSize, resp.Table1[:40])
	}
	// Every run driver plus the fuzz campaign and program endpoints.
	if len(resp.Drivers) != len(drivers)+2 {
		t.Fatalf("drivers listed: %d, want %d", len(resp.Drivers), len(drivers)+2)
	}
	if last := resp.Drivers[len(resp.Drivers)-1]; last.Endpoint != "/v1/run/program" {
		t.Fatalf("last driver endpoint = %q, want /v1/run/program", last.Endpoint)
	}
}

// TestRunEndpointsMatchDrivers asserts the byte-identity contract: every run
// endpoint's body is exactly the canonical encoding of the corresponding
// driver result (which is also what the CLI's --format json prints).
func TestRunEndpointsMatchDrivers(t *testing.T) {
	_, ts := newTestServer(t)
	cfg := core.DefaultConfig()

	fig9, err := core.RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2, n3, err := core.RunFig10(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defense, err := core.RunDefense(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		driver string
		want   any
	}{
		{"fig9", fig9},
		{"fig10", Fig10Response{N1: n1, N2: n2, N3: n3}},
		{"defense", defense},
	} {
		want, err := Encode(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		code, hdr, body := do(t, "POST", ts.URL+"/v1/run/"+tc.driver, "{}")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.driver, code, body)
		}
		if hdr.Get("X-Cache") != "MISS" {
			t.Errorf("%s: first request X-Cache = %q, want MISS", tc.driver, hdr.Get("X-Cache"))
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: endpoint body differs from driver encoding (%d vs %d bytes)", tc.driver, len(body), len(want))
		}
	}
}

func TestRunWithParams(t *testing.T) {
	_, ts := newTestServer(t)
	// Fig. 11 setup expressed through the generic attack endpoint: secret
	// 127 planted beyond the ROB.  base64("\x7f") = "fw==".
	body := `{"params": {"secret": "fw==", "nop_pad": 300}}`
	code, _, got := do(t, "POST", ts.URL+"/v1/run/attack", body)
	if code != http.StatusOK {
		t.Fatalf("attack: status %d: %s", code, got)
	}
	p := attack.DefaultParams()
	p.Secret = []byte{127}
	p.NopPad = 300
	res, err := core.RunAttack(core.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("attack endpoint body differs from driver encoding")
	}
	var decoded attack.Result
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	if v, ok := decoded.LeakedByte(); !ok || v != 127 {
		t.Fatalf("leaked byte = %d/%v, want 127", v, ok)
	}
}

func TestRunErrors(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _, body := do(t, "POST", ts.URL+"/v1/run/nope", "{}"); code != http.StatusNotFound {
		t.Fatalf("unknown driver: %d %s", code, body)
	}
	if code, _, body := do(t, "POST", ts.URL+"/v1/run/fig9", `{"confg": {}}`); code != http.StatusBadRequest {
		t.Fatalf("typo field: %d %s", code, body)
	}
	if code, _, body := do(t, "POST", ts.URL+"/v1/run/fig9", `{"config": {"rob_sz": 1}}`); code != http.StatusBadRequest {
		t.Fatalf("typo config field: %d %s", code, body)
	}
	// Hostile documents degrade into 400s, never into simulator panics.
	for _, body := range []string{
		`{"config": {"rob_size": -1}}`,
		`{"config": {"mem": {"l1d": {"size": -4096}}}}`,
		`{"params": {"probe_stride": 3}}`,
		`{"params": {"training_rounds": -5}}`,
		`{"params": {"secret": ""}}`,
	} {
		if code, _, resp := do(t, "POST", ts.URL+"/v1/run/fig9", body); code != http.StatusBadRequest {
			t.Fatalf("hostile body %s: %d %s", body, code, resp)
		}
	}
	// The server is still alive and serving after the hostile inputs.
	if code, _, _ := do(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatal("server died after hostile input")
	}
}

// TestCacheHit is the acceptance criterion: a repeated identical request is
// served from the cache — byte-identical body, hit counted in /v1/stats,
// and no second simulation.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	code1, hdr1, body1 := do(t, "POST", ts.URL+"/v1/run/fig9", "{}")
	code2, hdr2, body2 := do(t, "POST", ts.URL+"/v1/run/fig9", "{}")
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status %d / %d", code1, code2)
	}
	if hdr1.Get("X-Cache") != "MISS" || hdr2.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache %q then %q, want MISS then HIT", hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from computed body")
	}

	_, _, statsBody := do(t, "GET", ts.URL+"/v1/stats", "")
	var stats StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1 (second request must not re-simulate)", stats.Simulations)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", stats.Cache)
	}
	if stats.Version == "" || stats.UptimeSeconds < 0 {
		t.Fatalf("stats metadata: %+v", stats)
	}
	// An equivalent config spelled explicitly normalizes onto the same key,
	// and so does an explicit zero ("use the default") — resolve() runs the
	// normalized machine, so the shared key always names the simulated config.
	for _, body := range []string{`{"config": {"rob_size": 256}}`, `{"config": {"rob_size": 0}}`} {
		_, hdr3, _ := do(t, "POST", ts.URL+"/v1/run/fig9", body)
		if hdr3.Get("X-Cache") != "HIT" {
			t.Fatalf("normalized-equivalent request %s X-Cache = %q, want HIT", body, hdr3.Get("X-Cache"))
		}
	}
	// A different machine misses.
	_, hdr4, _ := do(t, "POST", ts.URL+"/v1/run/fig9", `{"config": {"rob_size": 128}}`)
	if hdr4.Get("X-Cache") != "MISS" {
		t.Fatalf("different config X-Cache = %q, want MISS", hdr4.Get("X-Cache"))
	}
}

// TestSingleflight is the second acceptance criterion: concurrent identical
// requests trigger exactly one simulation.
func TestSingleflight(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, body := do(t, "POST", ts.URL+"/v1/run/fig9", "{}")
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	_, _, statsBody := do(t, "GET", ts.URL+"/v1/stats", "")
	var stats StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Simulations != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("%d simulations / %d misses for %d concurrent identical requests, want exactly 1",
			stats.Simulations, stats.Cache.Misses, n)
	}
	if got := stats.Cache.Hits + stats.Cache.Dedups; got != n-1 {
		t.Fatalf("hits+dedups = %d, want %d", got, n-1)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"mode": "ipc", "rob": [64], "runahead": ["none", "original"], "workloads": ["mcf"]}`
	code, _, body := do(t, "POST", ts.URL+"/v1/sweep", spec)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var res SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row["error"] != "" || row["cycles"] == nil {
			t.Fatalf("bad row: %v", row)
		}
	}
	// Identical spec → cache hit.
	_, hdr, body2 := do(t, "POST", ts.URL+"/v1/sweep", spec)
	if hdr.Get("X-Cache") != "HIT" || !bytes.Equal(body, body2) {
		t.Fatalf("repeated sweep: X-Cache=%q identical=%v", hdr.Get("X-Cache"), bytes.Equal(body, body2))
	}
	// Worker counts tune execution, not the result: the same grid with a
	// workers field hits the same cache entry.
	withWorkers := `{"mode": "ipc", "rob": [64], "runahead": ["none", "original"], "workloads": ["mcf"], "workers": 1}`
	_, hdr, body3 := do(t, "POST", ts.URL+"/v1/sweep", withWorkers)
	if hdr.Get("X-Cache") != "HIT" || !bytes.Equal(body, body3) {
		t.Fatalf("sweep with workers: X-Cache=%q identical=%v", hdr.Get("X-Cache"), bytes.Equal(body, body3))
	}
	// Unknown fields are rejected, so no field outside the grid can split
	// the cache key.
	withLanes := `{"mode": "ipc", "rob": [64], "runahead": ["none", "original"], "workloads": ["mcf"], "lanes": 2}`
	if code, _, body := do(t, "POST", ts.URL+"/v1/sweep", withLanes); code != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown field")) {
		t.Fatalf("sweep with lanes: %d %s", code, body)
	}
	// Validation failures are 400s.
	if code, _, body := do(t, "POST", ts.URL+"/v1/sweep", `{"mode": "nope"}`); code != http.StatusBadRequest {
		t.Fatalf("bad mode: %d %s", code, body)
	}
	if code, _, body := do(t, "POST", ts.URL+"/v1/sweep", `{"secrets": [300], "mode": "attack"}`); code != http.StatusBadRequest {
		t.Fatalf("bad secret: %d %s", code, body)
	}
}

// pollJob polls a job until it reaches a terminal status.
func pollJob(t *testing.T, url string, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, body := do(t, "GET", url+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("job get: %d %s", code, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != JobRunning && v.Status != JobPending {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline (progress %+v)", id, v.Status, v.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", `{"driver": "fig9"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Kind != "fig9" {
		t.Fatalf("submitted job: %+v", v)
	}

	done := pollJob(t, ts.URL, v.ID)
	if done.Status != JobDone || done.Error != "" {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
	// The async result must be byte-identical to the synchronous endpoint's.
	_, _, want := do(t, "POST", ts.URL+"/v1/run/fig9", "{}")
	code, _, raw := do(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/result", "")
	if code != http.StatusOK || !bytes.Equal(raw, want) {
		t.Fatalf("job result endpoint: status %d, byte-identical %v", code, bytes.Equal(raw, want))
	}
	// The embedded copy carries the same document (re-indented by nesting).
	var fromJob, fromRun any
	if err := json.Unmarshal(done.Result, &fromJob); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &fromRun); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJob, fromRun) {
		t.Fatal("embedded job result differs from synchronous endpoint document")
	}

	// And the job populated the shared cache: the POST above was a hit.
	_, _, statsBody := do(t, "GET", ts.URL+"/v1/stats", "")
	var stats StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1 (sync request must reuse the job's result)", stats.Simulations)
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 {
		t.Fatalf("job stats: %+v", stats.Jobs)
	}

	// Listing includes the job without its (potentially large) result.
	_, _, listBody := do(t, "GET", ts.URL+"/v1/jobs", "")
	var list []JobView
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || len(list[0].Result) != 0 {
		t.Fatalf("job list: %d entries, result %d bytes", len(list), len(list[0].Result))
	}

	if code, _, _ := do(t, "GET", ts.URL+"/v1/jobs/nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
}

func TestJobCancel(t *testing.T) {
	_, ts := newTestServer(t)
	// A 256-point attack grid takes long enough that the immediate DELETE
	// lands mid-run; running points finish, queued points never start.
	secrets := make([]string, 256)
	for i := range secrets {
		secrets[i] = fmt.Sprint(i)
	}
	spec := `{"sweep": {"mode": "attack", "secrets": [` + strings.Join(secrets, ",") + `], "runahead": ["original"]}}`
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	code, _, body = do(t, "DELETE", ts.URL+"/v1/jobs/"+v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	final := pollJob(t, ts.URL, v.ID)
	if final.Status != JobCancelled {
		t.Fatalf("status after cancel = %s, want %s", final.Status, JobCancelled)
	}

	// Bad submissions are rejected synchronously, exactly where the
	// synchronous route rejects the same spec, and create no job: a driver
	// job's config and params are validated, and the other arms refuse the
	// driver-only fields instead of ignoring them.
	submitted := getStats(t, ts.URL).Jobs.Submitted
	for _, body := range []string{
		`{"driver": "nope"}`,
		`{"sweep": {"mode": "bad"}}`,
		`{"driver": "fig9", "config": {"rob_sz": 1}}`,
		`{"driver": "fig9", "params": {"probe_stride": 3}}`,
		`{"driver": "ipc", "config": {"rob_size": -4}}`,
		`{"program": {"asm": "halt"}, "config": {"rob_sz": 1}}`,
		`{"program": {"asm": "halt"}, "params": {"nop_pad": 1}}`,
		`{"sweep": {"rob": [64]}, "config": {"rob_size": 128}}`,
		`{"fuzz": {"seeds": 2}, "params": {}}`,
		`{"driver": "leaks", "config": {"rob_size": 64}}`,
	} {
		if code, _, resp := do(t, "POST", ts.URL+"/v1/jobs", body); code != http.StatusBadRequest {
			t.Fatalf("bad job %s: %d %s, want 400", body, code, resp)
		}
	}
	if n := getStats(t, ts.URL).Jobs.Submitted; n != submitted {
		t.Fatalf("rejected submissions created jobs: submitted %d -> %d", submitted, n)
	}
	if code, _, _ := do(t, "DELETE", ts.URL+"/v1/jobs/nope", ""); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %d", code)
	}
}

// TestJobStoreBounded: finished jobs (and their result payloads) are
// evicted past the cap; running jobs survive and lifetime accounting holds.
func TestJobStoreBounded(t *testing.T) {
	s := newJobStore()
	noCtx := func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }
	runningID := s.create("sweep", JobRequest{})
	if lj, ok := s.leaseNext(time.Now(), noCtx); !ok || lj.id != runningID {
		t.Fatalf("lease of first job: %+v %v", lj, ok)
	}
	for i := 0; i < maxJobs+50; i++ {
		id := s.create("fig9", JobRequest{})
		lj, ok := s.leaseNext(time.Now(), noCtx)
		if !ok || lj.id != id {
			t.Fatalf("lease %d: %+v %v", i, lj, ok)
		}
		s.finish(id, "", []byte(`{}`), nil)
	}
	if n := len(s.list()); n > maxJobs {
		t.Fatalf("store holds %d jobs, bound is %d", n, maxJobs)
	}
	if _, ok := s.get(runningID); !ok {
		t.Fatal("running job was evicted")
	}
	if st := s.stats(); st.Submitted != maxJobs+51 {
		t.Fatalf("lifetime submitted = %d, want %d", st.Submitted, maxJobs+51)
	}
}

// TestRunMatchesCLIEncoding pins the shared-encoder contract without
// spawning the CLI: Run + Encode is what both the HTTP handler and
// `specrun <fig> --format json` execute.
func TestRunMatchesCLIEncoding(t *testing.T) {
	_, ts := newTestServer(t)
	res, err := Run(context.Background(), "fig9", core.DefaultConfig(), attack.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got := do(t, "POST", ts.URL+"/v1/run/fig9", "")
	if !bytes.Equal(got, want) {
		t.Fatal("Run+Encode differs from endpoint body")
	}
}
