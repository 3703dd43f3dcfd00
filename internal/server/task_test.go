package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// submitJob posts a job document and returns the accepted job's id.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	code, _, resp := do(t, "POST", base+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: %d %s", body, code, resp)
	}
	var v JobView
	if err := json.Unmarshal(resp, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// getStats fetches GET /v1/stats.
func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	_, _, body := do(t, "GET", base+"/v1/stats", "")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// mustJSON marshals a test document.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobResultMatchesSyncBody pins the contract between the two paths a
// request of every kind can take: a job's /result is byte-identical to the
// synchronous route's body for the same spec, the job fills the shared cache
// (the synchronous request after it is a HIT), and the pair costs exactly
// one simulation.
func TestJobResultMatchesSyncBody(t *testing.T) {
	program := map[string]any{"asm": testProgramSrc}
	for _, tc := range []struct {
		name, job, route, sync string
	}{
		{"fig9", `{"driver": "fig9"}`, "/v1/run/fig9", `{}`},
		{"sweep",
			`{"sweep": {"rob": [64], "runahead": ["none", "original"], "workloads": ["mcf"]}}`,
			"/v1/sweep", `{"rob": [64], "runahead": ["none", "original"], "workloads": ["mcf"]}`},
		{"fuzz", `{"fuzz": {"seeds": 2}}`, "/v1/run/fuzz", `{"seeds": 2}`},
		{"leaks",
			`{"driver": "leaks", "fuzz": {"seeds": 2, "no_shrink": true}}`,
			"/v1/run/fuzz", `{"seeds": 2, "leaks": true, "no_shrink": true}`},
		{"program", mustJSON(t, map[string]any{"program": program}), "/v1/run/program", mustJSON(t, program)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t)
			id := submitJob(t, ts.URL, tc.job)
			if v := pollJob(t, ts.URL, id); v.Status != JobDone {
				t.Fatalf("job finished %s (%s)", v.Status, v.Error)
			}
			code, _, result := do(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "")
			if code != http.StatusOK {
				t.Fatalf("result: %d %s", code, result)
			}
			code, hdr, body := do(t, "POST", ts.URL+tc.route, tc.sync)
			if code != http.StatusOK || hdr.Get("X-Cache") != "HIT" {
				t.Fatalf("sync after job: %d X-Cache=%q %.200s", code, hdr.Get("X-Cache"), body)
			}
			if !bytes.Equal(result, body) {
				t.Fatalf("job result differs from sync body:\n%.300s\n%.300s", result, body)
			}
			if n := getStats(t, ts.URL).Simulations; n != 1 {
				t.Fatalf("simulations = %d, want 1", n)
			}
		})
	}
}

// TestCancelledJobPartialResult pins what a DELETE leaves on each kind of
// job: a sweep or a campaign keeps the partial result of the work it
// finished, which never becomes a cache entry, while a driver or program
// run keeps no result at all.
func TestCancelledJobPartialResult(t *testing.T) {
	secrets := make([]string, 256)
	for i := range secrets {
		secrets[i] = fmt.Sprint(i)
	}
	looping := map[string]any{"asm": ".org 0x1000\nloop:\n    beq r0, r0, loop\n"}
	for _, tc := range []struct {
		name, job   string
		wantPartial bool
	}{
		{"sweep", `{"sweep": {"mode": "attack", "secrets": [` + strings.Join(secrets, ",") + `], "runahead": ["original"]}}`, true},
		{"fuzz", `{"fuzz": {"seeds": 4000, "len": 64}}`, true},
		{"ipc", `{"driver": "ipc"}`, false},
		{"program", mustJSON(t, map[string]any{"program": looping}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t)
			id := submitJob(t, ts.URL, tc.job)
			if code, _, body := do(t, "DELETE", ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
				t.Fatalf("cancel: %d %s", code, body)
			}
			if v := pollJob(t, ts.URL, id); v.Status != JobCancelled {
				t.Fatalf("status after cancel = %s, want %s", v.Status, JobCancelled)
			}
			// The job turns cancelled at the DELETE; its runner reports
			// afterwards, once the simulation in flight has wound down (a
			// program finishes its current slice of cycles first).
			deadline := time.Now().Add(60 * time.Second)
			eventually := func(what string, cond func() bool) {
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			if tc.wantPartial {
				var partial []byte
				eventually("partial result", func() bool {
					code, _, body := do(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "")
					partial = body
					return code == http.StatusOK
				})
				if !json.Valid(partial) || len(partial) < 3 {
					t.Fatalf("partial result %q", partial)
				}
			} else {
				eventually("runner to release its workers", func() bool {
					return s.gate.InFlight() == 0 && s.gate.Queued() == 0
				})
				for i := 0; i < 20; i++ {
					if code, _, body := do(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", ""); code != http.StatusConflict {
						t.Fatalf("cancelled %s job result: %d %.200s, want 409", tc.name, code, body)
					}
				}
			}
			if n := s.cache.Stats().Entries; n != 0 {
				t.Fatalf("cancelled job left %d cache entries", n)
			}
		})
	}
}

// TestTimedOutSweepJobCachesNothing: an attempt stopped by the job timeout
// is a failed attempt, not a result, so a grid whose unrun points read
// "cancelled" never becomes the job's result or the cache entry for its
// key.
func TestTimedOutSweepJobCachesNothing(t *testing.T) {
	s, ts := newTestServerOpts(t, Options{JobTimeout: 20 * time.Millisecond, Retry: RetryPolicy{MaxAttempts: 1}})
	secrets := make([]string, 64)
	for i := range secrets {
		secrets[i] = fmt.Sprint(i)
	}
	id := submitJob(t, ts.URL, `{"sweep": {"mode": "attack", "secrets": [`+strings.Join(secrets, ",")+`]}}`)
	if v := pollJob(t, ts.URL, id); v.Status != JobFailed || !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("timed-out sweep job: %s (%s), want failed on its deadline", v.Status, v.Error)
	}
	if n := s.cache.Stats().Entries; n != 0 {
		t.Fatalf("timed-out sweep left %d cache entries", n)
	}
}

// errorText returns the message of an error document.
func errorText(t *testing.T, body []byte) string {
	t.Helper()
	var doc struct{ Error string }
	if err := json.Unmarshal(body, &doc); err != nil || doc.Error == "" {
		t.Fatalf("error document %q: %v", body, err)
	}
	return doc.Error
}

// TestInvalidSpecSameErrorOnRouteAndJob pins one message per invalid body:
// each kind's synchronous route and POST /v1/jobs build the same task, so
// they reject the same spec with the same status and error text, and no
// job is created.
func TestInvalidSpecSameErrorOnRouteAndJob(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, route, body, job string
	}{
		{"driver", "/v1/run/fig9", `{"config": {"rob_sz": 1}}`, `{"driver": "fig9", "config": {"rob_sz": 1}}`},
		{"params", "/v1/run/fig9", `{"params": {"probe_stride": 3}}`, `{"driver": "fig9", "params": {"probe_stride": 3}}`},
		{"sweep", "/v1/sweep", `{"rob": [-1]}`, `{"sweep": {"rob": [-1]}}`},
		{"fuzz", "/v1/run/fuzz", `{"seeds": -1}`, `{"fuzz": {"seeds": -1}}`},
		{"program", "/v1/run/program", `{"asm": "movi r1, @@"}`, `{"program": {"asm": "movi r1, @@"}}`},
	} {
		code, _, routeBody := do(t, "POST", ts.URL+tc.route, tc.body)
		jobCode, _, jobBody := do(t, "POST", ts.URL+"/v1/jobs", tc.job)
		if code != http.StatusBadRequest || jobCode != http.StatusBadRequest {
			t.Errorf("%s: route %d, job %d, want 400 from both", tc.name, code, jobCode)
			continue
		}
		if r, j := errorText(t, routeBody), errorText(t, jobBody); r != j {
			t.Errorf("%s: route says %q, job says %q", tc.name, r, j)
		}
	}
	if n := getStats(t, ts.URL).Jobs.Submitted; n != 0 {
		t.Fatalf("invalid specs created %d jobs", n)
	}
}

// TestUnbuildableConfigRefused: a config that breaks a precondition the
// simulator's constructors panic on — a power-of-two line size, PHT size
// and BTB set count, and each cache's set count — or that leaves a register
// file no register to rename into, so that no program makes progress, is a
// 400 on every route that takes a config, and POST /v1/jobs creates no job
// for it.
func TestUnbuildableConfigRefused(t *testing.T) {
	_, ts := newTestServer(t)
	program := mustJSON(t, testProgramSrc)
	for _, cfg := range []string{
		`{"mem": {"line_size": 48}}`,
		`{"branch": {"pht_size": 1000}}`,
		`{"branch": {"btb_sets": 100}}`,
		`{"mem": {"l1i": {"size": 12288}}}`,
		`{"mem": {"l1d": {"size": 12288}}}`,
		`{"mem": {"l2": {"size": 196608}}}`,
		`{"mem": {"l3": {"size": 6291456}}}`,
		`{"int_prf": 32}`,
	} {
		for _, req := range []struct{ route, body string }{
			{"/v1/run/fig9", `{"config": ` + cfg + `}`},
			{"/v1/run/program", `{"asm": ` + program + `, "config": ` + cfg + `}`},
			{"/v1/jobs", `{"driver": "fig9", "config": ` + cfg + `}`},
			{"/v1/jobs", `{"program": {"asm": ` + program + `, "config": ` + cfg + `}}`},
		} {
			if code, _, body := do(t, "POST", ts.URL+req.route, req.body); code != http.StatusBadRequest {
				t.Errorf("%s %s: %d %.200s, want 400", req.route, req.body, code, body)
			}
		}
	}
	if n := getStats(t, ts.URL).Jobs.Submitted; n != 0 {
		t.Fatalf("unbuildable configs created %d jobs", n)
	}
}

// TestSweepChecksLikeRunRoutes: a sweep grid's ROB values and attack
// padding are checked by the rules the run routes apply to a config and to
// params, with the same message, before anything simulates.
func TestSweepChecksLikeRunRoutes(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct{ route, run, sweep string }{
		{"/v1/run/fig9", `{"config": {"rob_size": 16385}}`, `{"rob": [16385], "workloads": ["mcf"]}`},
		{"/v1/run/attack", `{"params": {"nop_pad": 70000}}`, `{"mode": "attack", "pad": 70000}`},
		{"/v1/run/attack", `{"params": {"nop_pad": -1}}`, `{"mode": "attack", "pad": -1}`},
	} {
		code, _, runBody := do(t, "POST", ts.URL+tc.route, tc.run)
		sweepCode, _, sweepBody := do(t, "POST", ts.URL+"/v1/sweep", tc.sweep)
		if code != http.StatusBadRequest || sweepCode != http.StatusBadRequest {
			t.Errorf("%s: run route %d, sweep %d, want 400 from both", tc.sweep, code, sweepCode)
			continue
		}
		if r, w := errorText(t, runBody), errorText(t, sweepBody); r != w {
			t.Errorf("%s: run route says %q, sweep says %q", tc.sweep, r, w)
		}
	}
	if n := s.simulations.Load(); n != 0 {
		t.Fatalf("refused specs ran %d simulations", n)
	}
}

// TestRunJobRecoversPanic: a panic in a job's run is the attempt's error,
// carrying the panic value, so the retry policy handles it and the
// process survives.
func TestRunJobRecoversPanic(t *testing.T) {
	s, _ := newTestServer(t)
	tk := task{kind: "fig9", key: "panicking", run: func(context.Context, func(done, total int)) (any, error) {
		panic("branch: PHT size 1000 not a power of two")
	}}
	_, body, err := s.runJob(context.Background(), tk, func(done, total int) {})
	if err == nil || !strings.Contains(err.Error(), "PHT size 1000 not a power of two") || body != nil {
		t.Fatalf("runJob = %q, %v; want the panic as its error", body, err)
	}
	if !retryable(err) {
		t.Fatalf("a panicked attempt must be retryable: %v", err)
	}
}
