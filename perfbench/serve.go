package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/prog"
	"specrun/internal/proggen"
	"specrun/internal/rescache"
	"specrun/internal/server"
	"specrun/internal/sweep"
)

// The serve mix.  Its shape is recorded in BENCHMARK.json.  The asm share
// keeps the median inside the binary-submission memory-hit mode: a 50/50
// split left it in the gap between the binary and asm-parse modes, and
// the asm mode itself swings with host speed.  The Zipf-skewed pool is
// four times the server's 512-entry memory tier, so hits come from memory
// and from disk while first touches simulate and write through.
const (
	poolSize    = 2048 // distinct generated programs
	zipfS       = 1.1  // Zipf exponent over the pool's popularity ranks
	asmShare    = 0.2  // program submissions sent as asm text (the rest as base64 .sprog)
	attackShare = 0.005
	jobShare    = 0.01
	attackPool  = 8 // distinct (variant, secret) attack requests
	primedCount = 1000
	primedJobs  = 16
	seqLen      = 1 << 18 // generated request sequence (wraps if a run outlasts it)
	replayMax   = 5000    // program requests a traced run replays layer by layer
	serveWarmup = 2 * time.Second
)

type reqKind uint8

const (
	kindProgram reqKind = iota
	kindAttack
	kindJob
)

type serveReq struct {
	kind reqKind
	idx  int32 // pool or attack index
	asm  bool
}

// poolProgram is one generated program: its two submission bodies and the
// response body the server must return for either.
type poolProgram struct {
	asmBody, binBody []byte
	want             []byte
}

// attackRequest is one POST /v1/run/attack body and its expected response.
type attackRequest struct {
	body, want []byte
}

// serve is the service workload: an in-process specrun server over a
// durable data directory, driven over loopback HTTP by closed-loop clients.
type serve struct {
	cfg     core.Config
	dir     string
	primed  string
	pool    []poolProgram
	attacks []attackRequest
	reqs    []serveReq

	srv   *server.Server
	ts    *httptest.Server
	conns []*http.Client
}

func (s *serve) clients() int { return workers }

// tailPct is p95, inside the asm-submission mode (20% of requests).  p99
// sits on the edge of the 1% of job operations and p99.9 among journal and
// cache fsyncs and collector pauses; across seeds they spread by 0.33 and
// 0.39 of their medians, more than any bound the benchmark may set.
func (s *serve) tailPct() float64      { return 95 }
func (s *serve) warmup() time.Duration { return serveWarmup }

// prepare generates the pool and the request sequence, computes every
// expected response in-process, primes the set-up data directory through
// an earlier untimed server session, and starts the measured server.
func (s *serve) prepare(ctx context.Context, seed int64) error {
	s.cfg = core.Normalize(core.DefaultConfig())
	s.dir = filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1 << 40)

	pool, err := sweep.Run(ctx, seqInts(poolSize), func(_ context.Context, i int) (poolProgram, error) {
		return s.makeProgram(base + int64(i))
	}, sweep.Options{Workers: workers})
	if err != nil {
		return err
	}
	s.pool = pool

	variants := []attack.Variant{attack.VariantPHT, attack.VariantBTB, attack.VariantRSBOverwrite, attack.VariantRSBFlush}
	for i := range attackPool {
		p := attack.DefaultParams()
		p.Variant = variants[i%len(variants)]
		p.Secret = []byte{byte(rng.Intn(256))}
		body, err := json.Marshal(server.RunRequest{Params: mustJSON(p)})
		if err != nil {
			return err
		}
		res, err := server.Run(ctx, "attack", s.cfg, p, workers)
		if err != nil {
			return err
		}
		want, err := server.Encode(res)
		if err != nil {
			return err
		}
		s.attacks = append(s.attacks, attackRequest{body: body, want: want})
	}

	rank := rng.Perm(poolSize) // popularity rank -> pool index
	zipf := rand.NewZipf(rng, zipfS, 1, poolSize-1)
	s.reqs = make([]serveReq, seqLen)
	for i := range s.reqs {
		u := rng.Float64()
		r := serveReq{kind: kindProgram, idx: int32(rank[zipf.Uint64()]), asm: rng.Float64() < asmShare}
		switch {
		case u < jobShare:
			r.kind = kindJob
		case u < jobShare+attackShare:
			r.kind, r.idx = kindAttack, int32(rng.Intn(attackPool))
		}
		s.reqs[i] = r
	}

	s.primed = filepath.Join(s.dir, "primed")
	if err := s.prime(); err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	s.srv = server.New(server.Options{Workers: workers, DataDir: filepath.Join(s.dir, "live")})
	s.ts = httptest.NewServer(s.srv.Handler())
	for range workers {
		s.conns = append(s.conns, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return nil
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// makeProgram generates one pool program, its submission bodies and the
// body the server must answer with: server.Encode of the same run done
// in-process.
func (s *serve) makeProgram(seed int64) (poolProgram, error) {
	bin, text, err := proggen.Artifact(seed, proggen.DefaultOptions())
	if err != nil {
		return poolProgram{}, err
	}
	p, err := prog.Decode(bin)
	if err != nil {
		return poolProgram{}, err
	}
	st, err := core.RunProgramStats(s.cfg, p)
	if err != nil {
		return poolProgram{}, err
	}
	want, err := server.Encode(server.ProgramResponse{Sprog: prog.Hash(bin), Insts: len(p.Insts), Base: p.Base, Stats: st})
	if err != nil {
		return poolProgram{}, err
	}
	asmBody, err := json.Marshal(server.ProgramRequest{Asm: text})
	if err != nil {
		return poolProgram{}, err
	}
	binBody, err := json.Marshal(server.ProgramRequest{Binary: bin})
	if err != nil {
		return poolProgram{}, err
	}
	return poolProgram{asmBody: asmBody, binBody: binBody, want: want}, nil
}

// prime runs an earlier server session over the set-up data directory: it
// stores the first primedCount pool programs and completes primedJobs
// program jobs, so set-up replays a real journal and scans a real cache.
func (s *serve) prime() error {
	srv := server.New(server.Options{Workers: workers, DataDir: s.primed})
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	_, err := sweep.Run(context.Background(), seqInts(primedCount), func(_ context.Context, i int) (struct{}, error) {
		if code, body := do("POST", "/v1/run/program", s.pool[i].binBody); code != http.StatusOK || !bytes.Equal(body, s.pool[i].want) {
			return struct{}{}, fmt.Errorf("program %d: status %d", i, code)
		}
		return struct{}{}, nil
	}, sweep.Options{Workers: workers})
	if err != nil {
		return err
	}
	for i := range primedJobs {
		code, body := do("POST", "/v1/jobs", jobBody(s.pool[primedCount+i].binBody))
		var v server.JobView
		if code != http.StatusAccepted || json.Unmarshal(body, &v) != nil {
			return fmt.Errorf("job %d: status %d", i, code)
		}
		do("GET", "/v1/jobs/"+v.ID+"/events", nil) // returns after the terminal event
	}
	return nil
}

// jobBody wraps a program submission as an async program job.
func jobBody(program []byte) []byte {
	return append(append([]byte(`{"program":`), program...), '}')
}

func (s *serve) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *serve) paperErr(ctx context.Context) (float64, error) { return figureAnchorsErr(ctx) }

// setup boots a second server over the primed data directory (disk scan,
// journal replay and compaction), mounts it on loopback and serves one
// request — a disk hit — over a fresh connection.
func (s *serve) setup(context.Context) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	srv := server.New(server.Options{Workers: workers, DataDir: s.primed})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{}}
	code, body, err := post(client, ts.URL+"/v1/run/program", s.pool[0].binBody)
	d := time.Since(start)
	client.CloseIdleConnections()
	ts.Close()
	srv.Close()
	switch {
	case err != nil:
		return 0, err
	case code != http.StatusOK || !bytes.Equal(body, s.pool[0].want):
		return 0, fmt.Errorf("set-up request: status %d or body differs from the in-process result", code)
	}
	return d, nil
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// op sends request k on client c.  A program or attack request's latency is
// its round trip; a job's runs from submission to the terminal event on its
// SSE stream, after which its result is fetched and checked.
func (s *serve) op(_ context.Context, c int, k int64) (verdict, time.Duration) {
	cl := s.conns[c]
	r := s.reqs[k%seqLen]
	start := time.Now()
	switch r.kind {
	case kindAttack:
		a := s.attacks[r.idx]
		code, body, err := post(cl, s.ts.URL+"/v1/run/attack", a.body)
		return checkBody(code, http.StatusOK, body, a.want, err, "attack"), time.Since(start)
	case kindJob:
		return s.job(cl, r, start)
	}
	p := s.pool[r.idx]
	body := p.binBody
	if r.asm {
		body = p.asmBody
	}
	code, got, err := post(cl, s.ts.URL+"/v1/run/program", body)
	return checkBody(code, http.StatusOK, got, p.want, err, "program"), time.Since(start)
}

func checkBody(code, wantCode int, got, want []byte, err error, what string) verdict {
	switch {
	case err != nil:
		return failf("%s: %v", what, err)
	case code != wantCode:
		return failf("%s: status %d: %s", what, code, bytes.TrimSpace(got))
	case !bytes.Equal(got, want):
		return wrongf("%s: body differs from the in-process result", what)
	}
	return passed
}

// job submits a program job, follows its event stream to the terminal
// event and checks that it ended done with the synchronous body.
func (s *serve) job(cl *http.Client, r serveReq, start time.Time) (verdict, time.Duration) {
	p := s.pool[r.idx]
	body := p.binBody
	if r.asm {
		body = p.asmBody
	}
	code, got, err := post(cl, s.ts.URL+"/v1/jobs", jobBody(body))
	var v server.JobView
	if err == nil && code == http.StatusAccepted {
		err = json.Unmarshal(got, &v)
	}
	if err != nil || code != http.StatusAccepted {
		return checkBody(code, http.StatusAccepted, got, nil, err, "job submit"), time.Since(start)
	}
	status, err := follow(cl, s.ts.URL+"/v1/jobs/"+v.ID+"/events")
	d := time.Since(start)
	switch {
	case err != nil:
		return failf("job %s events: %v", v.ID, err), d
	case status != server.JobDone:
		return failf("job %s ended %s", v.ID, status), d
	}
	code, got, err = get(cl, s.ts.URL+"/v1/jobs/"+v.ID+"/result")
	return checkBody(code, http.StatusOK, got, p.want, err, "job result"), d
}

// follow reads a job's SSE stream until its terminal event and returns the
// event name.
func follow(cl *http.Client, url string) (string, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, found := strings.CutPrefix(sc.Text(), "event: "); found && ev != "progress" {
			io.Copy(io.Discard, resp.Body)
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("stream ended without a terminal event")
}

// serverCounters is the slice of /v1/stats and /metrics a traced run
// differences.
type serverCounters struct {
	stats                       server.StatsResponse
	handlerSum, handlerCount    float64 // POST /v1/run/program handler histogram
	gateWaitSum, journalRecords float64
}

func (s *serve) scrape() (serverCounters, error) {
	var sc serverCounters
	cl := s.conns[0]
	code, body, err := get(cl, s.ts.URL+"/v1/stats")
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &sc.stats)
	}
	if err != nil || code != http.StatusOK {
		return sc, fmt.Errorf("/v1/stats: status %d: %v", code, err)
	}
	code, body, err = get(cl, s.ts.URL+"/metrics")
	if err != nil || code != http.StatusOK {
		return sc, fmt.Errorf("/metrics: status %d: %v", code, err)
	}
	const route = `{route="POST /v1/run/program"}`
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "specrun_http_request_duration_seconds_sum" + route:
			sc.handlerSum = v
		case "specrun_http_request_duration_seconds_count" + route:
			sc.handlerCount = v
		case "specrun_gate_wait_seconds_sum":
			sc.gateWaitSum = v
		case "specrun_journal_records_total":
			sc.journalRecords = v
		}
	}
	return sc, nil
}

// traced drives the same mix for d with a span around every request, takes
// the server's own counters and histograms as /v1/stats and /metrics
// deltas, then replays the run's program requests serially through the
// handler's layers — decode, parse, codec, hash, cache, simulate, encode —
// each of which must reproduce the server's body.
func (s *serve) traced(ctx context.Context, tr *tracer, d time.Duration) (tracedRun, error) {
	var (
		t                tally
		next             atomic.Int64
		mu               sync.Mutex
		progRTT, jobTime []float64
	)
	segment(ctx, workers, s.op, serveWarmup, &next, &t)
	first := next.Load()
	before, err := s.scrape()
	if err != nil {
		return tracedRun{}, err
	}
	walls, _ := segment(ctx, workers, func(ctx context.Context, c int, k int64) (v verdict, lat time.Duration) {
		tr.do("op", 0, k, func(int64) { v, lat = s.op(ctx, c, k) })
		ms := float64(lat.Nanoseconds()) / 1e6
		mu.Lock()
		switch s.reqs[k%seqLen].kind {
		case kindProgram:
			progRTT = append(progRTT, ms)
		case kindJob:
			jobTime = append(jobTime, ms)
		}
		mu.Unlock()
		return v, lat
	}, d, &next, &t)
	after, err := s.scrape()
	if err != nil {
		return tracedRun{}, err
	}
	ops := int(next.Load() - first)

	m := map[string]float64{}
	b, a := before.stats, after.stats
	hits := float64(a.Cache.Hits - b.Cache.Hits)
	misses := float64(a.Cache.Misses - b.Cache.Misses)
	m["rescache.hit_ratio"] = ratio(hits, hits+misses)
	if a.Cache.Disk != nil && b.Cache.Disk != nil {
		dh := float64(a.Cache.Disk.Hits - b.Cache.Disk.Hits)
		dm := float64(a.Cache.Disk.Misses - b.Cache.Disk.Misses)
		m["rescache.disk_hit_ratio"] = ratio(dh, dh+dm)
		m["rescache.disk_writes"] = float64(a.Cache.Disk.Writes-b.Cache.Disk.Writes) / float64(ops)
	}
	ph := float64(a.MachinePools.Hits - b.MachinePools.Hits)
	pm := float64(a.MachinePools.Misses - b.MachinePools.Misses)
	m["core.pool_hit_ratio"] = ratio(ph, ph+pm)
	m["sweep.gate_wait_ms"] = (after.gateWaitSum - before.gateWaitSum) * 1e3 / float64(ops)
	m["server.journal_records"] = ratio(after.journalRecords-before.journalRecords, float64(len(jobTime)))
	m["server.job_ms"] = mean(jobTime)
	handler := ratio(after.handlerSum-before.handlerSum, after.handlerCount-before.handlerCount) * 1e3
	m["server.handler_ms"] = handler
	m["server.http_ms"] = mean(progRTT) - handler

	v, err := s.replay(tr, first, next.Load(), m)
	if err != nil {
		return tracedRun{}, err
	}
	t.add(v, "layer replay")
	return tracedRun{layers: m, tally: t, opWalls: walls}, nil
}

// replay re-runs the traced window's program requests [from, to), at most
// replayMax of them, one at a time through the layers the program handler
// calls, against a cache of the server's shape (512-entry memory tier over
// a fsynced disk tier), and writes the per-request layer metrics into m.
func (s *serve) replay(tr *tracer, from, to int64, m map[string]float64) (verdict, error) {
	cache := rescache.New(0)
	if err := cache.AttachDisk(rescache.DiskOptions{Dir: filepath.Join(s.dir, "replay")}); err != nil {
		return passed, err
	}
	pool := newMachinePool()
	tot := &simTotals{}
	var alloc uint64
	ops := 0
	spansBefore := len(tr.snapshot())
	for k := from; k < to && ops < replayMax; k++ {
		r := s.reqs[k%seqLen]
		if r.kind != kindProgram {
			continue
		}
		p := s.pool[r.idx]
		body := p.binBody
		if r.asm {
			body = p.asmBody
		}
		ops++
		a0 := allocatedBytes()
		got, err := replayProgram(tr, -k-1, body, s.cfg, cache, pool, tot)
		alloc += allocatedBytes() - a0
		if err != nil {
			return failf("replay of request %d: %v", k, err), nil
		}
		if !bytes.Equal(got, p.want) {
			return wrongf("replay of request %d: body differs from the server's", k), nil
		}
	}
	spans := tr.snapshot()[spansBefore:]
	layerTimes(spans, ops, m, map[string]string{
		"server.decode_us":    "server.decode",
		"asm.parse_us":        "asm.parse",
		"prog.codec_us":       "prog.codec",
		"core.hash_us":        "core.hash",
		"server.encode_us":    "server.encode",
		"rescache.read_us":    "rescache.read",
		"rescache.write_us":   "rescache.write",
		"core.new_machine_ms": "core.new_machine",
	})
	m["server.simulate_ms"] = inclusivePerOp(spans, "server.simulate", ops) / 1e6
	m["core.reset_us"] = perCall(spans, "core.reset") / 1e3
	m["core.machines_built"] = float64(count(spans, "core.new_machine")) / float64(ops)
	m["core.alloc_mb"] = float64(alloc) / (1 << 20) / float64(ops)
	tot.into(m, ops)
	return passed, nil
}

// inclusivePerOp is the mean per-operation total duration (ns, children
// included) of the spans named name.
func inclusivePerOp(spans []span, name string, ops int) float64 {
	var sum int64
	for _, s := range spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return ratio(float64(sum), float64(ops))
}

// replayProgram is one program request through the handler's layers, each
// under its span: strict JSON decode and config resolution, asm parse or
// binary decode, canonical encode, content hash, cache read, and on a miss
// the simulation, the response encode and the write-through.
func replayProgram(tr *tracer, op int64, body []byte, cfg core.Config, cache *rescache.Cache, pool *machinePool, tot *simTotals) ([]byte, error) {
	var (
		req server.ProgramRequest
		p   *asm.Program
		bin []byte
		key string
		out []byte
		hit bool
		err error
	)
	tr.do("server.decode", 0, op, func(int64) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&req); err == nil {
			err = core.Validate(cfg)
		}
	})
	if err != nil {
		return nil, err
	}
	if req.Asm != "" {
		tr.do("asm.parse", 0, op, func(int64) { p, err = asm.Parse("request", req.Asm) })
		if err != nil {
			return nil, err
		}
		tr.do("prog.codec", 0, op, func(int64) { bin, err = prog.Encode(p) })
	} else {
		tr.do("prog.codec", 0, op, func(int64) { p, err = prog.Decode(req.Binary) })
		bin = req.Binary
	}
	if err != nil {
		return nil, err
	}
	tr.do("core.hash", 0, op, func(int64) {
		key, err = core.HashKey("program", bin, core.Normalize(cfg), uint64(core.DefaultProgramBudget))
	})
	if err != nil {
		return nil, err
	}
	tr.do("rescache.read", 0, op, func(int64) { out, hit = cache.Get(key) })
	if hit {
		return out, nil
	}
	var st cpu.Stats
	tr.do("server.simulate", 0, op, func(id int64) {
		st, err = runMachine(tr, op, id, cfg, p, core.DefaultProgramBudget, pool, tot)
	})
	if err != nil {
		return nil, err
	}
	tr.do("server.encode", 0, op, func(int64) {
		out, err = server.Encode(server.ProgramResponse{Sprog: prog.Hash(bin), Insts: len(p.Insts), Base: p.Base, Stats: st})
	})
	if err != nil {
		return nil, err
	}
	tr.do("rescache.write", 0, op, func(int64) { cache.Add(key, out) })
	return out, nil
}
