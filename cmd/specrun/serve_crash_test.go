package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain lets this test binary double as the server under test: when
// SPECRUN_TEST_SERVE_ARGS is set the process runs `specrun serve` with
// those arguments instead of the test suite.  The crash tests re-exec
// os.Args[0] in that mode and then kill -9 it — a real process death, not
// an in-process simulation.
func TestMain(m *testing.M) {
	if args := os.Getenv("SPECRUN_TEST_SERVE_ARGS"); args != "" {
		if err := runServe(strings.Fields(args)); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveProc is one re-exec'd `specrun serve` child.
type serveProc struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startServe launches the server child and waits for its "listening on"
// banner, which carries the real port for --addr 127.0.0.1:0.
func startServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{cmd: exec.Command(os.Args[0])}
	p.cmd.Env = append(os.Environ(), "SPECRUN_TEST_SERVE_ARGS="+strings.Join(args, " "))
	pr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill(); p.cmd.Wait() })

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case banner <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-banner:
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its address; stderr:\n%s", p.log())
	}
	return p
}

func (p *serveProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

func (p *serveProc) url(path string) string { return "http://" + p.addr + path }

func httpDo(t *testing.T, method, url, body string) (int, http.Header, []byte) {
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

// metricValue extracts the first sample of a family from /metrics text.
func metricValue(t *testing.T, expo, family string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, family+" ") || strings.HasPrefix(line, family+"{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
				return v
			}
		}
	}
	t.Fatalf("family %s not found in exposition", family)
	return 0
}

// TestServeKill9Restart is the end-to-end durability proof: a real
// `specrun serve` process is killed with SIGKILL mid-campaign, restarted
// over the same --data-dir, and must (a) resume the journaled job to
// completion, (b) re-serve an already-computed result from the disk cache
// — pinned by the disk hit counter in /metrics — and (c) not re-lease jobs
// that already finished.
func TestServeKill9Restart(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec suite")
	}
	dir := t.TempDir()
	args := []string{"--addr", "127.0.0.1:0", "--data-dir", dir, "--workers", "2", "--quiet"}

	a := startServe(t, args...)
	// A synchronous result lands in the disk cache.
	code, _, ref := httpDo(t, "POST", a.url("/v1/run/fig9"), "{}")
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, ref)
	}
	// A long campaign is mid-flight when the process dies.
	code, _, body := httpDo(t, "POST", a.url("/v1/jobs"), `{"fuzz": {"seeds": 4000, "len": 64, "workers": 2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var view struct {
		ID       string `json:"id"`
		Status   string `json:"status"`
		Progress struct{ Done, Total int }
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, b := httpDo(t, "GET", a.url("/v1/jobs/"+view.ID), "")
		var v struct {
			Status   string `json:"status"`
			Progress struct {
				Done int `json:"done"`
			} `json:"progress"`
		}
		if json.Unmarshal(b, &v) == nil && (v.Progress.Done > 0 || v.Status == "done") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never progressed: %s", b)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := a.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	a.cmd.Wait()

	// Restart over the same state directory.
	b2 := startServe(t, args...)
	// (a) The journaled job is restored and runs to completion.  The wait
	// follows the job's progress rather than the clock — under the race
	// detector the campaign is slow, but it must keep moving.
	const stallLimit = 60 * time.Second
	lastDone, lastMove := -1, time.Now()
	for {
		code, _, jb := httpDo(t, "GET", b2.url("/v1/jobs/"+view.ID), "")
		if code != http.StatusOK {
			t.Fatalf("job lost across kill -9: %d %s", code, jb)
		}
		var v struct {
			Status   string `json:"status"`
			Error    string `json:"error"`
			Progress struct {
				Done int `json:"done"`
			} `json:"progress"`
		}
		if err := json.Unmarshal(jb, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" {
			break
		}
		if v.Status == "failed" || v.Status == "cancelled" {
			t.Fatalf("restored job ended %s: %s", v.Status, v.Error)
		}
		if v.Progress.Done != lastDone {
			lastDone, lastMove = v.Progress.Done, time.Now()
		} else if time.Since(lastMove) > stallLimit {
			t.Fatalf("restored job made no progress for %v: %s", stallLimit, jb)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code, _, res := httpDo(t, "GET", b2.url("/v1/jobs/"+view.ID+"/result"), ""); code != http.StatusOK || len(res) == 0 {
		t.Fatalf("no result after resume: %d", code)
	}

	// (b) The synchronous result is served from the disk tier, not re-run.
	_, _, expo := httpDo(t, "GET", b2.url("/metrics"), "")
	hitsBefore := metricValue(t, string(expo), "specrun_cache_disk_hits_total")
	code, hdr, got := httpDo(t, "POST", b2.url("/v1/run/fig9"), "{}")
	if code != http.StatusOK || !bytes.Equal(got, ref) {
		t.Fatalf("restart result: %d identical=%v", code, bytes.Equal(got, ref))
	}
	if hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q after restart, want HIT", hdr.Get("X-Cache"))
	}
	_, _, expo = httpDo(t, "GET", b2.url("/metrics"), "")
	if hitsAfter := metricValue(t, string(expo), "specrun_cache_disk_hits_total"); hitsAfter <= hitsBefore {
		t.Fatalf("disk hit counter did not increase: %v -> %v", hitsBefore, hitsAfter)
	}

	// (c) A third boot restores the finished job terminally — no re-lease.
	if err := b2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	b2.cmd.Wait()
	c := startServe(t, args...)
	if _, _, jb := httpDo(t, "GET", c.url("/v1/jobs/"+view.ID), ""); !strings.Contains(string(jb), `"status": "done"`) && !strings.Contains(string(jb), `"status":"done"`) {
		t.Fatalf("finished job not terminal after third boot: %s", jb)
	}
	_, _, expo = httpDo(t, "GET", c.url("/metrics"), "")
	if sims := metricValue(t, string(expo), "specrun_simulations_total"); sims != 0 {
		t.Fatalf("third boot re-ran %v simulations for finished work", sims)
	}
}

// TestServeGracefulSIGTERM: one SIGTERM drains and exits 0.
func TestServeGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec suite")
	}
	dir := t.TempDir()
	p := startServe(t, "--addr", "127.0.0.1:0", "--data-dir", dir, "--quiet", "--drain-timeout", "30s")
	if code, _, body := httpDo(t, "POST", p.url("/v1/run/fig9"), "{}"); code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, p.log())
	}
	if !strings.Contains(p.log(), "draining") {
		t.Fatalf("no drain banner in stderr:\n%s", p.log())
	}
}

// TestServeSecondSignalForcesExit: with a job pinning the drain, a second
// signal must end the process immediately with status 130.
func TestServeSecondSignalForcesExit(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec suite")
	}
	dir := t.TempDir()
	p := startServe(t, "--addr", "127.0.0.1:0", "--data-dir", dir, "--quiet", "--drain-timeout", "120s")
	// A long campaign keeps Drain busy well past the test's patience.
	code, _, body := httpDo(t, "POST", p.url("/v1/jobs"), `{"fuzz": {"seeds": 60000, "len": 512, "workers": 2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitBanner(t, p, "draining")
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
		if code := p.cmd.ProcessState.ExitCode(); code != 130 {
			t.Fatalf("force exit status = %d, want 130; stderr:\n%s", code, p.log())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("second signal did not force exit; stderr:\n%s", p.log())
	}
}

func waitBanner(t *testing.T, p *serveProc, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(p.log(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q in stderr:\n%s", substr, p.log())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
