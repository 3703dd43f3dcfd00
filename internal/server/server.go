// Package server exposes the SPECRUN experiment drivers as a long-running
// HTTP/JSON service (`specrun serve`): one POST /v1/run/{driver} endpoint
// per paper artifact, user-defined grids at POST /v1/sweep, asynchronous
// jobs with progress and cancellation at /v1/jobs, and introspection at
// GET /v1/config, /v1/stats and /healthz.
//
// Serving leans on two properties of the simulator: determinism and
// independence.  Every simulation is fully deterministic, so encoded
// results are memoized in a content-addressed LRU cache
// (specrun/internal/rescache) keyed by a canonical hash of
// (driver, config, params); concurrent identical requests collapse onto a
// single simulation (singleflight).  Simulations are independent, so all
// execution flows through the sweep engine under one server-wide worker
// budget (sweep.Gate) — N concurrent requests share a single worker pool
// instead of oversubscribing the host.
//
// Every request kind — a driver, a sweep, a campaign or a program —
// reduces to one task (task.go), which runs on exactly one synchronous path
// (serveTask) or one job path (runJob).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
	"specrun/internal/rescache"
	"specrun/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Workers is the server-wide simulation budget: the maximum number of
	// simulations in flight at once, across all requests and jobs
	// (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the result cache (0 = 512 entries).
	CacheEntries int
	// Logger receives structured request and job-lifecycle logs
	// (nil = discard).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.  Off by
	// default: the profiler exposes stack traces and should be opted into.
	EnablePprof bool

	// DataDir enables the durable tier: a disk-backed result cache under
	// <dir>/cache and an append-only job journal at <dir>/jobs.jsonl.
	// Jobs submitted before a crash resume on the next boot; results
	// survive restarts.  Empty = memory only.  If the directory is
	// unusable the server degrades to memory-only with a logged warning —
	// it never refuses to start.
	DataDir string
	// DiskCacheBytes bounds the disk cache (0 = 256 MiB).
	DiskCacheBytes int64
	// JobTimeout bounds a single job attempt end to end (0 = unbounded).
	// A timed-out attempt is retried under the Retry policy.
	JobTimeout time.Duration
	// Retry governs re-execution of failed job attempts (zero values
	// select the defaults documented on RetryPolicy).
	Retry RetryPolicy
}

// Server is the simulation service.  Create with New, mount Handler on an
// http.Server, and Close on shutdown to cancel outstanding jobs.
type Server struct {
	opts    Options
	gate    *sweep.Gate
	cache   *rescache.Cache
	jobs    *jobStore
	logger  *slog.Logger
	metrics *serverMetrics

	baseCtx context.Context // parent of every computation; Close cancels it
	stop    context.CancelFunc
	start   time.Time

	requests    atomic.Uint64 // HTTP requests served
	simulations atomic.Uint64 // tasks of every kind actually run (cache misses)
	sseActive   atomic.Int64  // open SSE event streams (GET /v1/jobs/{id}/events)
}

// New builds a Server.  With Options.DataDir set, the durable tier attaches
// here: the disk cache is scanned, the job journal replayed and compacted,
// and interrupted jobs re-queued and leased again at once (a restored retry
// when its backoff elapses).  Durability failures degrade to memory-only —
// New never fails.
func New(opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		opts:    opts,
		gate:    sweep.NewGate(opts.Workers),
		cache:   rescache.New(opts.CacheEntries),
		jobs:    newJobStore(),
		logger:  logger,
		baseCtx: ctx,
		stop:    cancel,
		start:   time.Now(),
	}
	s.metrics = newServerMetrics(s)
	s.jobs.logger = logger
	s.jobs.onTerminal = func(kind, status string, req JobRequest) {
		s.metrics.jobsTotal.With(kind, status).Inc()
		if req.Program != nil {
			outcome := "error"
			if status == JobDone {
				outcome = "ok"
			}
			s.metrics.programSubs.With(req.Program.format(), outcome).Inc()
		}
	}
	s.jobs.policy = opts.Retry.withDefaults()
	if opts.DataDir != "" {
		// AttachDisk logs its own warning on failure and the cache keeps
		// serving from memory; the Degraded flag surfaces in /v1/stats.
		_ = s.cache.AttachDisk(rescache.DiskOptions{
			Dir:      filepath.Join(opts.DataDir, "cache"),
			MaxBytes: opts.DiskCacheBytes,
			Logger:   logger,
		})
		jnl, recs, err := openJournal(filepath.Join(opts.DataDir, "jobs.jsonl"), logger)
		if err != nil {
			logger.Warn("job journal unavailable; jobs are not durable", "error", err)
		} else {
			retries := s.jobs.restore(recs, s.cache.Get)
			if err := jnl.rewrite(s.jobs.snapshotRecords()); err != nil {
				logger.Warn("journal compaction failed; appending to existing journal", "error", err)
			}
			s.jobs.journal = jnl
			for _, at := range retries {
				s.retryAt(at)
			}
			s.pump(time.Now())
		}
	}
	return s
}

// Close cancels the server's base context — running jobs and in-flight
// computations observe cancellation and wind down — and closes the job
// store, which then grants no lease.  With a durable store, leased jobs are
// deliberately NOT journaled as cancelled: their last record stays the
// lease, so the next boot reclaims and re-runs them.
func (s *Server) Close() {
	s.stop()
	s.jobs.close()
}

// Drain blocks until no job is pending or running, or ctx expires (whose
// error it returns).  With a durable store, a bounded drain is safe: jobs
// still queued at the deadline are journaled and resume on the next boot.
func (s *Server) Drain(ctx context.Context) error {
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		if st := s.jobs.stats(); st.Running == 0 && st.Pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// pump leases every pending job due by now onto its own runner goroutine
// (the gate, not the lease count, bounds simulation concurrency).  Boot, a
// submission and a retry's timer call it; nothing polls.
func (s *Server) pump(now time.Time) {
	for {
		lj, ok := s.jobs.leaseNext(now, func() (context.Context, context.CancelFunc) {
			return context.WithCancel(s.baseCtx)
		})
		if !ok {
			return
		}
		go s.runAttempt(lj)
	}
}

// retryAt arms the one-shot timer that starts a re-queued job once its
// backoff elapses.  The timer pumps as of at, so clock granularity never
// leaves the job short of due; after Close it starts nothing.
func (s *Server) retryAt(at time.Time) {
	time.AfterFunc(time.Until(at), func() { s.pump(at) })
}

// runAttempt executes one leased attempt under the per-job timeout and
// records how it ended.  Returning is the only way an attempt ends: done,
// failed, cancelled (DELETE or shutdown) or cut off by the job timeout.
// Requests replayed from the journal take this same path, so resume is
// ordinary execution.
func (s *Server) runAttempt(lj leasedJob) {
	defer lj.cancel()
	ctx := lj.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	var key string
	var body []byte
	t, err := jobTask(lj.req)
	if err == nil {
		key, body, err = s.runJob(ctx, t, func(done, total int) { s.jobs.progress(lj.id, done, total) })
	}
	if at := s.jobs.finish(lj.id, key, body, err); !at.IsZero() {
		s.retryAt(at)
	}
}

// Handler returns the routed HTTP handler.  Every route is mounted through
// s.handle, which layers per-route metrics and request logging (Go's
// ServeMux hides the matched pattern from outer middleware, so
// instrumentation attaches at registration).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "GET /healthz", s.handleHealthz)
	s.handle(mux, "GET /metrics", s.handleMetrics)
	s.handle(mux, "GET /v1/config", s.handleConfig)
	s.handle(mux, "GET /v1/stats", s.handleStats)
	s.handle(mux, "POST /v1/run/{driver}", s.handleRun)
	s.handle(mux, "POST /v1/run/fuzz", s.handleFuzz)          // literal pattern wins over {driver}
	s.handle(mux, "POST /v1/run/program", s.handleRunProgram) // ditto
	s.handle(mux, "POST /v1/sweep", s.handleSweep)
	s.handle(mux, "POST /v1/jobs", s.handleJobSubmit)
	s.handle(mux, "GET /v1/jobs", s.handleJobList)
	s.handle(mux, "GET /v1/jobs/{id}", s.handleJobGet)
	s.handle(mux, "GET /v1/jobs/{id}/result", s.handleJobResult)
	s.handle(mux, "GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.handle(mux, "DELETE /v1/jobs/{id}", s.handleJobCancel)
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// --- run endpoints ---

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	d, ok := DriverByName(r.PathValue("driver"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown driver %q", r.PathValue("driver"))
		return
	}
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	t, err := driverTask(d, req)
	s.serveTask(w, r, t, err)
}

// --- sweep endpoint ---

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeBodyError(w, err)
		return
	}
	t, err := sweepTask(spec)
	s.serveTask(w, r, t, err)
}

// --- async jobs ---

// JobRequest is the body of POST /v1/jobs: a run driver (Driver +
// RunRequest fields), a sweep (Sweep spec), a fuzzing campaign (Fuzz
// spec; driver "fuzz" for the architectural differential oracle, "leaks"
// for the microarchitectural leak oracle) or an interchange-format program
// submission (Program spec), executed asynchronously.
type JobRequest struct {
	Driver  string          `json:"driver,omitempty"` // run driver name, "sweep", "fuzz", "leaks" or "program"
	Sweep   *SweepSpec      `json:"sweep,omitempty"`
	Fuzz    *FuzzRequest    `json:"fuzz,omitempty"`
	Program *ProgramRequest `json:"program,omitempty"`
	RunRequest
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	view, err := s.startJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

// startJob validates and normalizes the request, registers the job
// (journaled when durable) and pumps the scheduler so the returned view
// reflects the immediately-leased attempt.
func (s *Server) startJob(req JobRequest) (JobView, error) {
	t, err := s.normalizeJob(&req)
	if err != nil {
		return JobView{}, err
	}
	id := s.jobs.create(t.kind, req)
	s.pump(time.Now())
	view, _ := s.jobs.get(id)
	return view, nil
}

// normalizeJob validates req and rewrites it into the canonical form the
// journal persists and executeJob dispatches on — exactly one of
// Program / Fuzz / Sweep / Driver populated, aliases and worker defaults
// folded in — and returns the task the synchronous route builds for the
// same spec.  Validation happens here, before the job is accepted, so a
// bad document 400s with the route's own message instead of surfacing as a
// failed (and pointlessly retried) job.
func (s *Server) normalizeJob(req *JobRequest) (task, error) {
	switch {
	case req.Program != nil || req.Driver == "program":
		if req.Driver != "" && req.Driver != "program" {
			return task{}, fmt.Errorf("job: driver %q conflicts with program spec", req.Driver)
		}
		if req.Sweep != nil || req.Fuzz != nil {
			return task{}, fmt.Errorf("job: program and sweep/fuzz specs conflict")
		}
		if req.Program == nil {
			return task{}, fmt.Errorf("job: driver %q requires a program spec", req.Driver)
		}
	case req.Fuzz != nil || req.Driver == "fuzz" || req.Driver == "leaks":
		if req.Driver != "" && req.Driver != "fuzz" && req.Driver != "leaks" {
			return task{}, fmt.Errorf("job: driver %q conflicts with fuzz spec", req.Driver)
		}
		if req.Sweep != nil {
			return task{}, fmt.Errorf("job: fuzz and sweep specs conflict")
		}
		fz := FuzzRequest{}
		if req.Fuzz != nil {
			fz = *req.Fuzz
		}
		if fz.Workers == 0 {
			fz.Workers = req.Workers
		}
		// The "leaks" alias flips the spec to the leak oracle ("leak" already
		// names the attack byte-extraction driver); an explicit Fuzz spec with
		// Leaks set and the plain "fuzz" driver is equivalent.
		if req.Driver == "leaks" {
			fz.Leaks = true
		}
		req.Fuzz = &fz
	case req.Sweep != nil || req.Driver == "sweep":
		if req.Driver != "" && req.Driver != "sweep" {
			return task{}, fmt.Errorf("job: driver %q conflicts with sweep spec", req.Driver)
		}
		if req.Sweep == nil {
			req.Sweep = &SweepSpec{}
		}
		// A top-level workers field applies to the sweep unless the spec
		// sets its own — accepting-but-ignoring it would be a silent trap.
		if req.Sweep.Workers == 0 {
			req.Sweep.Workers = req.Workers
		}
	default:
		return jobTask(*req)
	}
	// Config and params overlay a run driver's machine and attack; the
	// other arms carry their own spec, so these fields would be ignored.
	if len(req.Config) > 0 || len(req.Params) > 0 {
		return task{}, fmt.Errorf("job: config and params apply only to run drivers")
	}
	req.Driver = ""
	t, err := jobTask(*req)
	if err != nil && req.Program != nil {
		s.metrics.programSubs.With(req.Program.format(), "invalid").Inc()
	}
	return t, err
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobResult serves a finished job's stored bytes verbatim, so an
// async result is byte-identical to the synchronous endpoint's body (the
// result embedded in the job document is re-indented by the outer encoder).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if len(view.Result) == 0 {
		writeError(w, http.StatusConflict, "job %s is %s with no result", view.ID, view.Status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(view.Result)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// --- introspection ---

// DriverInfo documents one run endpoint (GET /v1/config).
type DriverInfo struct {
	Endpoint string `json:"endpoint"`
	Artifact string `json:"artifact"`
}

// ConfigResponse is the body of GET /v1/config.
type ConfigResponse struct {
	Config  core.Config  `json:"config"` // Table 1 defaults (the base every partial request overlays)
	Table1  string       `json:"table1"` // rendered table, as `specrun config` prints it
	Drivers []DriverInfo `json:"drivers"`
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	cfg := core.DefaultConfig()
	resp := ConfigResponse{Config: cfg, Table1: core.Table1(cfg)}
	for _, d := range drivers {
		resp.Drivers = append(resp.Drivers, DriverInfo{Endpoint: "/v1/run/" + d.Name, Artifact: d.Artifact})
	}
	resp.Drivers = append(resp.Drivers, DriverInfo{
		Endpoint: "/v1/run/fuzz",
		Artifact: "differential fuzzing campaign (ISS-vs-pipeline golden-model oracle)",
	})
	resp.Drivers = append(resp.Drivers, DriverInfo{
		Endpoint: "/v1/run/program",
		Artifact: "interchange-format program run (asm text or canonical .sprog binary)",
	})
	writeJSON(w, http.StatusOK, resp)
}

// MachinePoolStats reports reusable-machine retention: the CPU model's
// per-shape pool LRU (a shape is a configuration minus the runahead kind,
// skip-INV and secure switches, which a lent machine takes on without a
// rebuild) and the per-worker machine caches of the differential and leak
// oracles.  Both are bounded; the eviction counters tell an operator
// whether a long-lived server is cycling through more shapes than the
// bounds hold.
type MachinePoolStats struct {
	Configs          int    `json:"configs"`               // machine shapes with a live pool
	Capacity         int    `json:"capacity"`              // shape pool LRU bound
	Evictions        uint64 `json:"evictions"`             // shape pools dropped
	Hits             uint64 `json:"hits"`                  // runs that borrowed a warm machine
	Misses           uint64 `json:"misses"`                // runs that built a machine from scratch
	RunnerEvictions  uint64 `json:"runner_evictions"`      // machines dropped from either oracle's per-worker caches
	RunnerCapPerSlot int    `json:"runner_cap_per_worker"` // machines one oracle's per-worker cache holds
}

// RuntimeStats is the process- and scheduler-health section of
// GET /v1/stats: Go runtime vitals plus the simulation gate's live
// occupancy, so an operator can tell an idle server from a saturated one
// without a metrics stack.
type RuntimeStats struct {
	UptimeSeconds       float64 `json:"uptime_seconds"`
	Goroutines          int     `json:"goroutines"`
	HeapInuseBytes      uint64  `json:"heap_inuse_bytes"`
	GCCount             uint32  `json:"gc_count"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	GateInFlight        int     `json:"gate_in_flight"` // worker tokens held
	GateQueued          int     `json:"gate_queued"`    // simulations waiting for a token
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Version       string           `json:"version"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      uint64           `json:"requests"`
	Simulations   uint64           `json:"simulations"` // tasks of every kind actually run (cache misses)
	SimCycles     uint64           `json:"sim_cycles"`  // processor cycles simulated, process-wide
	Workers       int              `json:"workers"`     // server-wide simulation budget
	Cache         rescache.Stats   `json:"cache"`
	Jobs          JobStats         `json:"jobs"`
	MachinePools  MachinePoolStats `json:"machine_pools"`
	Runtime       RuntimeStats     `json:"runtime"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pools := core.MachinePoolStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, StatsResponse{
		Version:       Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Simulations:   s.simulations.Load(),
		SimCycles:     cpu.SimCyclesTotal(),
		Workers:       s.gate.Cap(),
		Cache:         s.cache.Stats(),
		Jobs:          s.jobs.stats(),
		MachinePools: MachinePoolStats{
			Configs:          pools.Configs,
			Capacity:         pools.Capacity,
			Evictions:        pools.Evictions,
			Hits:             pools.Hits,
			Misses:           pools.Misses,
			RunnerEvictions:  difftest.RunnerEvictions(),
			RunnerCapPerSlot: difftest.RunnerCacheCap,
		},
		Runtime: RuntimeStats{
			UptimeSeconds:       time.Since(s.start).Seconds(),
			Goroutines:          runtime.NumGoroutine(),
			HeapInuseBytes:      ms.HeapInuse,
			GCCount:             ms.NumGC,
			GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
			GateInFlight:        s.gate.InFlight(),
			GateQueued:          s.gate.Queued(),
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// --- helpers ---

// maxBodyBytes bounds request bodies; the largest legitimate document (a
// full Config overlay plus params) is a few KB.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes an optional JSON body; an empty body leaves
// v at its zero value (the endpoint's defaults).  Bodies over maxBodyBytes
// surface as *http.MaxBytesError — writeBodyError maps them to 413.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// writeBodyError maps a decodeBody failure onto its status: 413 for a body
// over the limit, 400 for anything else.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// writeBody writes a pre-encoded JSON body with the cache disposition.
func writeBody(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.Write(body)
}

// writeJSON encodes v canonically and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := Encode(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError emits a JSON error document.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
