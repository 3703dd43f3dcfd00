package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"specrun/internal/difftest"
	"specrun/internal/leak"
	"specrun/internal/sweep"
)

func TestFuzzEndpointMatchesDriver(t *testing.T) {
	_, ts := newTestServer(t)
	spec := difftest.CampaignSpec{Seeds: 3, Matrix: "quick"}
	body, _ := json.Marshal(FuzzRequest{CampaignSpec: spec})
	code, hdr, got := do(t, "POST", ts.URL+"/v1/run/fuzz", string(body))
	if code != http.StatusOK {
		t.Fatalf("fuzz: %d %s", code, got)
	}
	if hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("first campaign X-Cache = %q, want MISS", hdr.Get("X-Cache"))
	}
	rep, err := difftest.Run(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("endpoint body differs from direct campaign:\n%s\nvs\n%s", got, want)
	}
	// Identical spec: served from the content-addressed cache.
	code, hdr, got2 := do(t, "POST", ts.URL+"/v1/run/fuzz", string(body))
	if code != http.StatusOK || hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("repeat campaign: %d X-Cache=%q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("cached body differs from fresh body")
	}
	var decoded difftest.Report
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.Clean || decoded.Runs != 3*len(difftest.Matrix(false)) {
		t.Fatalf("report: clean=%v runs=%d", decoded.Clean, decoded.Runs)
	}
}

func TestFuzzEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"seeds": -1}`,
		`{"seeds": 999999999}`,
		`{"matrix": "bogus"}`,
		`{"len": 99999}`,
		`{"unknown_field": 1}`,
	} {
		code, _, resp := do(t, "POST", ts.URL+"/v1/run/fuzz", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %s: code %d %s, want 400", body, code, resp)
		}
	}
}

// TestCampaignSpecOneRuleSet pins the one campaign rule set
// (difftest.CampaignSpec.Resolve): each invalid spec gets the same error
// text from both engines, from POST /v1/run/fuzz and from a fuzz job.
func TestCampaignSpecOneRuleSet(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"seeds": -1}`,
		`{"len": -5}`,
		`{"matrix": "bogus"}`,
		`{"leaks": true, "interleave": true}`,
	} {
		var spec difftest.CampaignSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		_, derr := difftest.Run(context.Background(), spec, sweep.Options{})
		_, lerr := leak.Run(context.Background(), spec, sweep.Options{})
		if derr == nil || lerr == nil {
			t.Fatalf("%s: engines accepted the spec (difftest %v, leak %v)", body, derr, lerr)
		}
		want := derr.Error()
		if lerr.Error() != want {
			t.Errorf("%s: leak.Run says %q, difftest.Run %q", body, lerr, want)
		}
		for _, r := range []struct{ path, body string }{
			{"/v1/run/fuzz", body},
			{"/v1/jobs", `{"fuzz": ` + body + `}`},
		} {
			code, _, resp := do(t, "POST", ts.URL+r.path, r.body)
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(resp, &e); err != nil {
				t.Fatalf("POST %s %s: %v (%s)", r.path, r.body, err, resp)
			}
			if code != http.StatusBadRequest || e.Error != want {
				t.Errorf("POST %s %s: %d %q, want 400 %q", r.path, r.body, code, e.Error, want)
			}
		}
	}
}

func TestFuzzJob(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", `{"fuzz": {"seeds": 2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Kind != "fuzz" {
		t.Fatalf("kind = %q, want fuzz", view.Kind)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, body = do(t, "GET", ts.URL+"/v1/jobs/"+view.ID, "")
		if code != http.StatusOK {
			t.Fatalf("get: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.Status != JobRunning && view.Status != JobPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fuzz job did not finish in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Status != JobDone {
		t.Fatalf("job status = %s (%s)", view.Status, view.Error)
	}
	var rep difftest.Report
	if err := json.Unmarshal(view.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fuzz job found divergences: %+v", rep.Divergences)
	}
	// Conflicting specs are rejected up front.
	code, _, body = do(t, "POST", ts.URL+"/v1/jobs", `{"driver": "ipc", "fuzz": {"seeds": 2}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("conflicting job accepted: %d %s", code, body)
	}
}

// TestLeakJob covers the leak-oracle arm of POST /v1/jobs: the "leaks"
// driver alias flips the spec to the leak engine, the job completes with a
// leak.Report, and the oracle conflicts are rejected up front.
func TestLeakJob(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", `{"driver": "leaks", "fuzz": {"seeds": 2, "no_shrink": true}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Kind != "fuzz" {
		t.Fatalf("kind = %q, want fuzz", view.Kind)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, body = do(t, "GET", ts.URL+"/v1/jobs/"+view.ID, "")
		if code != http.StatusOK {
			t.Fatalf("get: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.Status != JobRunning && view.Status != JobPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leak job did not finish in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Status != JobDone {
		t.Fatalf("job status = %s (%s)", view.Status, view.Error)
	}
	var rep leak.Report
	if err := json.Unmarshal(view.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Spec.Leaks {
		t.Fatal("job result is not a leak-oracle report")
	}
	if !rep.Clean {
		t.Fatalf("leak job reported oracle errors: %+v", rep.Findings)
	}
	if len(rep.Corpus) == 0 {
		t.Fatal("leak report carries no golden-corpus rows")
	}
	// The golden corpus must behave inside the server exactly as in the
	// engine's own tests: defenses off leaks, SL defense silent.
	for _, row := range rep.Corpus {
		switch row.Config {
		case "original-rob256":
			if !row.Leak {
				t.Errorf("corpus %s/%s: expected leak with defenses off", row.Program, row.Config)
			}
		case "original-rob256-secure":
			if row.Leak {
				t.Errorf("corpus %s/%s: SL defense failed to suppress", row.Program, row.Config)
			}
		}
	}
	// The two oracles are mutually exclusive.
	code, _, body = do(t, "POST", ts.URL+"/v1/jobs", `{"fuzz": {"seeds": 2, "leaks": true, "interleave": true}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("leaks+interleave accepted: %d %s", code, body)
	}
	// And the synchronous endpoint dispatches on the same spec field.
	code, _, body = do(t, "POST", ts.URL+"/v1/run/fuzz", `{"seeds": 2, "leaks": true, "no_shrink": true}`)
	if code != http.StatusOK {
		t.Fatalf("sync leak campaign: %d %s", code, body)
	}
	var sync leak.Report
	if err := json.Unmarshal(body, &sync); err != nil {
		t.Fatal(err)
	}
	if !sync.Spec.Leaks || len(sync.Corpus) == 0 {
		t.Fatalf("sync endpoint did not run the leak engine: %s", body)
	}
}
