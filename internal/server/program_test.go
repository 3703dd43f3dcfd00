package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"specrun/internal/asm"
	"specrun/internal/prog"
)

// testProgramSrc is a tiny terminating program for endpoint tests.
const testProgramSrc = `
.org 0x1000
start:
    movi r1, 8
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`

// testProgramBinary is testProgramSrc in canonical interchange form.
func testProgramBinary(t *testing.T) []byte {
	t.Helper()
	p, err := asm.Parse("test", testProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := prog.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// The acceptance property of the interchange cache key: the same program
// submitted as asm text and as canonical binary lands on one cache entry.
func TestRunProgramAsmBinaryShareCache(t *testing.T) {
	_, ts := newTestServer(t)

	asmBody, _ := json.Marshal(map[string]any{"asm": testProgramSrc})
	code, hdr, body1 := do(t, "POST", ts.URL+"/v1/run/program", string(asmBody))
	if code != http.StatusOK {
		t.Fatalf("asm submission: %d %s", code, body1)
	}
	if hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("first submission X-Cache = %q, want MISS", hdr.Get("X-Cache"))
	}

	binBody, _ := json.Marshal(map[string]any{
		"binary": base64.StdEncoding.EncodeToString(testProgramBinary(t)),
	})
	code, hdr, body2 := do(t, "POST", ts.URL+"/v1/run/program", string(binBody))
	if code != http.StatusOK {
		t.Fatalf("binary submission: %d %s", code, body2)
	}
	if hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("binary submission X-Cache = %q, want HIT (shared entry)", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("asm and binary responses differ:\n%s\n%s", body1, body2)
	}

	var res ProgramResponse
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Sprog != prog.Hash(testProgramBinary(t)) {
		t.Fatalf("sprog hash = %q, want content address of canonical binary", res.Sprog)
	}
	if res.Insts != 4 || res.Stats.Cycles == 0 || res.Stats.Committed == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRunProgramInvalid(t *testing.T) {
	_, ts := newTestServer(t)
	bin64 := base64.StdEncoding.EncodeToString(testProgramBinary(t))
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty", `{}`, "one of asm or binary"},
		{"both", fmt.Sprintf(`{"asm":"halt","binary":%q}`, bin64), "mutually exclusive"},
		{"parse error", `{"asm":"movi r1, @@"}`, "request:"},
		{"malformed register", `{"asm":"addi r1x, r0, 5\nhalt"}`, `invalid register \"r1x\"`},
		{"clflush index", `{"asm":"clflush [r1 + r2*8 + 0]\nhalt"}`, "index register"},
		{"fp address base", `{"asm":"ld r1, [f2 + 0]\nhalt"}`, "source register f2"},
		{"fp jump target", `{"asm":"jr f2\nhalt"}`, "source register f2"},
		{"int source of fp op", `{"asm":"fadd f1, r2, f3\nhalt"}`, "source register r2"},
		{"bad binary", `{"binary":"aGVsbG8="}`, "prog:"},
		{"budget", fmt.Sprintf(`{"asm":"halt","max_cycles":%d}`, maxProgramCycles+1), "exceeds limit"},
		{"bad config", `{"asm":"halt","config":{"nonsense":1}}`, "config:"},
	}
	for _, tc := range cases {
		code, _, body := do(t, "POST", ts.URL+"/v1/run/program", tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d %s, want 400", tc.name, code, body)
		}
		if !strings.Contains(string(body), tc.wantErr) {
			t.Fatalf("%s: body %s, want %q", tc.name, body, tc.wantErr)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	view JobView
}

// readSSE consumes a text/event-stream body into parsed events.
func readSSE(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for {
		line, err := r.ReadString('\n')
		if line == "\n" && cur.name != "" {
			events = append(events, cur)
			cur = sseEvent{}
		}
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			cur.name = strings.TrimSpace(after)
		}
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(after), &cur.view); err != nil {
				t.Fatalf("bad event payload %q: %v", after, err)
			}
		}
		if err != nil {
			return events
		}
	}
}

// A program job's SSE stream ends with exactly one terminal event named by
// the final status, and the job's stored result matches the synchronous
// endpoint for the same submission.
func TestProgramJobEvents(t *testing.T) {
	_, ts := newTestServer(t)

	jobBody, _ := json.Marshal(map[string]any{"program": map[string]any{"asm": testProgramSrc}})
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", string(jobBody))
	if code != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Kind != "program" {
		t.Fatalf("job kind = %q, want program", view.Kind)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body))
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.name != JobDone {
		t.Fatalf("terminal event = %q (%+v), want %q", last.name, last.view, JobDone)
	}
	if last.view.Status != JobDone || len(last.view.Result) != 0 {
		t.Fatalf("terminal view = %+v, want done without inline result", last.view)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("non-terminal event named %q", ev.name)
		}
	}

	// The stored result is byte-identical to the synchronous endpoint's body
	// (same cache entry).
	reqBody, _ := json.Marshal(map[string]any{"asm": testProgramSrc})
	code, hdr, syncBody := do(t, "POST", ts.URL+"/v1/run/program", string(reqBody))
	if code != http.StatusOK || hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("sync after job: %d X-Cache=%q", code, hdr.Get("X-Cache"))
	}
	code, _, jobResult := do(t, "GET", ts.URL+"/v1/jobs/"+view.ID+"/result", "")
	if code != http.StatusOK || !bytes.Equal(jobResult, syncBody) {
		t.Fatalf("job result differs from sync body: %d\n%s\n%s", code, jobResult, syncBody)
	}
}

// An SSE subscription to an already-finished job yields just the terminal
// event; an unknown id is a 404.
func TestJobEventsTerminalAndUnknown(t *testing.T) {
	s, ts := newTestServer(t)

	jobBody, _ := json.Marshal(map[string]any{"program": map[string]any{"asm": "halt"}})
	code, _, body := do(t, "POST", ts.URL+"/v1/jobs", string(jobBody))
	if code != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := s.jobs.get(view.ID)
		if ok && v.Status != JobRunning && v.Status != JobPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, hdr, stream := do(t, "GET", ts.URL+"/v1/jobs/"+view.ID+"/events", "")
	if code != http.StatusOK || hdr.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events on finished job: %d %q", code, hdr.Get("Content-Type"))
	}
	events := readSSE(t, bufio.NewReader(bytes.NewReader(stream)))
	if len(events) != 1 || events[0].name != JobDone {
		t.Fatalf("events = %+v, want single done event", events)
	}

	code, _, _ = do(t, "GET", ts.URL+"/v1/jobs/nope/events", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job events: %d, want 404", code)
	}
}

// Program submissions surface in the metrics endpoint by format and outcome,
// each counted once — a job that fails all its attempts is one error — and
// the SSE gauge family is registered.
func TestProgramMetrics(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{Retry: RetryPolicy{BaseDelay: time.Millisecond}})

	reqBody, _ := json.Marshal(map[string]any{"asm": testProgramSrc})
	if code, _, body := do(t, "POST", ts.URL+"/v1/run/program", string(reqBody)); code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	do(t, "POST", ts.URL+"/v1/run/program", `{}`)

	// A program that never halts would run out of its budget on every
	// attempt, so its first exhausted budget fails the job.
	looping := map[string]any{"asm": ".org 0x1000\nloop:\n    beq r0, r0, loop\n", "max_cycles": 1000}
	jobBody, _ := json.Marshal(map[string]any{"program": looping})
	id := submitJob(t, ts.URL, string(jobBody))
	if v := pollJob(t, ts.URL, id); v.Status != JobFailed || v.Attempts != 1 {
		t.Fatalf("looping program job: %s after %d attempts (%s), want failed after 1", v.Status, v.Attempts, v.Error)
	}

	_, _, metricsBody := do(t, "GET", ts.URL+"/metrics", "")
	text := string(metricsBody)
	for _, want := range []string{
		`specrun_program_submissions_total{format="asm",outcome="ok"} 1`,
		`specrun_program_submissions_total{format="asm",outcome="error"} 1`,
		`specrun_program_submissions_total{format="binary",outcome="invalid"} 1`,
		"specrun_sse_streams_active 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
