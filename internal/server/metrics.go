package server

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
	"specrun/internal/faultinject"
	"specrun/internal/metrics"
	"specrun/internal/rescache"
)

// serverMetrics is the instrument set behind GET /metrics.  Request-path
// instruments (the vecs and the gate-wait histogram) are updated inline;
// everything the service already counts elsewhere — cache stats, pool
// stats, job stats, the global simulated-cycle counter — is exported via
// scrape-time callbacks instead of duplicating state.
type serverMetrics struct {
	reg         *metrics.Registry
	httpReqs    *metrics.CounterVec
	httpDur     *metrics.HistogramVec
	jobsTotal   *metrics.CounterVec
	programSubs *metrics.CounterVec
	gateWait    *metrics.Histogram
}

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg: r,
		httpReqs: r.NewCounterVec("specrun_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		httpDur: r.NewHistogramVec("specrun_http_request_duration_seconds",
			"HTTP request latency by route pattern.",
			metrics.DefBuckets, "route"),
		jobsTotal: r.NewCounterVec("specrun_jobs_total",
			"Async jobs that reached a terminal state, by driver kind and outcome.",
			"kind", "status"),
		programSubs: r.NewCounterVec("specrun_program_submissions_total",
			"Interchange programs submitted (POST /v1/run/program and program jobs), by input format (asm/binary) and outcome (ok/invalid/error); a request counts at its response, a job when it reaches a terminal state.",
			"format", "outcome"),
		gateWait: r.NewHistogram("specrun_gate_wait_seconds",
			"Time simulations spent queued for a worker token (uncontended acquires are not observed).",
			metrics.DefBuckets),
	}

	r.CounterFunc("specrun_simulations_total",
		"Tasks actually run (cache misses): drivers, sweeps, campaigns and programs.",
		s.simulations.Load)
	r.CounterFunc("specrun_http_requests_served_total",
		"All HTTP requests, including unrouted 404s.",
		s.requests.Load)

	r.GaugeFunc("specrun_jobs_running",
		"Async jobs currently executing.",
		func() float64 { return float64(s.jobs.stats().Running) })
	r.GaugeFunc("specrun_jobs_pending",
		"Async jobs queued (submitted, awaiting a lease, or backing off before a retry).",
		func() float64 { return float64(s.jobs.stats().Pending) })
	r.CounterFunc("specrun_job_retries_total",
		"Failed job attempts re-queued under the retry policy.",
		func() uint64 { return s.jobs.stats().Retries })
	r.CounterFunc("specrun_journal_records_total",
		"Job-journal records appended this process.",
		func() uint64 { n, _ := s.jobs.journalCounters(); return n })
	r.CounterFunc("specrun_journal_write_errors_total",
		"Job-journal appends or fsyncs that failed (durability degraded for those records).",
		func() uint64 { _, n := s.jobs.journalCounters(); return n })
	r.GaugeFunc("specrun_sse_streams_active",
		"Server-sent-event job streams currently open (GET /v1/jobs/{id}/events).",
		func() float64 { return float64(s.sseActive.Load()) })

	r.CounterFunc("specrun_cache_hits_total",
		"Result-cache lookups answered from memory.",
		func() uint64 { return s.cache.Stats().Hits })
	r.CounterFunc("specrun_cache_misses_total",
		"Result-cache lookups that ran the simulation.",
		func() uint64 { return s.cache.Stats().Misses })
	r.CounterFunc("specrun_cache_evictions_total",
		"Result-cache entries dropped by the LRU bound.",
		func() uint64 { return s.cache.Stats().Evictions })
	r.CounterFunc("specrun_cache_singleflight_merges_total",
		"Concurrent identical requests coalesced onto one in-flight simulation.",
		func() uint64 { return s.cache.Stats().Dedups })
	r.GaugeFunc("specrun_cache_entries",
		"Result-cache entries currently resident.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	// Disk-tier instruments read zero until AttachDisk succeeds; the
	// degraded gauge flips to 1 when a configured disk tier failed to
	// attach and the cache fell back to memory only.
	disk := func(f func(*rescache.DiskStats) uint64) func() uint64 {
		return func() uint64 {
			if d := s.cache.Stats().Disk; d != nil {
				return f(d)
			}
			return 0
		}
	}
	r.CounterFunc("specrun_cache_disk_hits_total",
		"Result-cache lookups served from the disk tier.",
		disk(func(d *rescache.DiskStats) uint64 { return d.Hits }))
	r.CounterFunc("specrun_cache_disk_misses_total",
		"Disk-tier probes that found no entry.",
		disk(func(d *rescache.DiskStats) uint64 { return d.Misses }))
	r.CounterFunc("specrun_cache_disk_writes_total",
		"Entries persisted to the disk tier.",
		disk(func(d *rescache.DiskStats) uint64 { return d.Writes }))
	r.CounterFunc("specrun_cache_disk_write_errors_total",
		"Disk-tier writes that failed (entry stays memory-only).",
		disk(func(d *rescache.DiskStats) uint64 { return d.WriteErrors }))
	r.CounterFunc("specrun_cache_disk_read_errors_total",
		"Disk-tier reads that failed (served as misses).",
		disk(func(d *rescache.DiskStats) uint64 { return d.ReadErrors }))
	r.CounterFunc("specrun_cache_disk_quarantined_total",
		"Disk-tier entries moved to quarantine after a checksum mismatch.",
		disk(func(d *rescache.DiskStats) uint64 { return d.Quarantined }))
	r.CounterFunc("specrun_cache_disk_evictions_total",
		"Disk-tier entries evicted by the size bound.",
		disk(func(d *rescache.DiskStats) uint64 { return d.Evictions }))
	r.GaugeFunc("specrun_cache_disk_bytes",
		"Bytes resident in the disk tier.",
		func() float64 {
			if d := s.cache.Stats().Disk; d != nil {
				return float64(d.Bytes)
			}
			return 0
		})
	r.GaugeFunc("specrun_cache_disk_entries",
		"Entries resident in the disk tier.",
		func() float64 {
			if d := s.cache.Stats().Disk; d != nil {
				return float64(d.Entries)
			}
			return 0
		})
	r.GaugeFunc("specrun_cache_disk_degraded",
		"1 when a configured disk cache failed to attach and the server fell back to memory only.",
		func() float64 {
			if d := s.cache.Stats().Disk; d != nil && d.Degraded {
				return 1
			}
			return 0
		})

	r.CounterFunc("specrun_faults_injected_total",
		"Fault-injection points fired (0 unless SPECRUN_FAULTS enables the chaos harness).",
		faultinject.Fired)

	r.GaugeFunc("specrun_gate_capacity",
		"Server-wide simulation worker budget.",
		func() float64 { return float64(s.gate.Cap()) })
	r.GaugeFunc("specrun_gate_in_flight",
		"Worker tokens currently held by running simulations.",
		func() float64 { return float64(s.gate.InFlight()) })
	r.GaugeFunc("specrun_gate_queued",
		"Simulations blocked waiting for a worker token.",
		func() float64 { return float64(s.gate.Queued()) })

	r.CounterFunc("specrun_machine_pool_hits_total",
		"Simulations that recycled a warm pooled machine.",
		func() uint64 { return core.MachinePoolStats().Hits })
	r.CounterFunc("specrun_machine_pool_misses_total",
		"Simulations that built a machine from scratch.",
		func() uint64 { return core.MachinePoolStats().Misses })
	r.CounterFunc("specrun_machine_pool_evictions_total",
		"Per-shape machine pools dropped by the LRU bound.",
		func() uint64 { return core.MachinePoolStats().Evictions })
	r.CounterFunc("specrun_difftest_runner_evictions_total",
		"Machines dropped from the differential and leak oracles' per-worker caches.",
		difftest.RunnerEvictions)

	r.CounterFunc("specrun_sim_cycles_total",
		"Processor cycles simulated across every machine in the process.",
		cpu.SimCyclesTotal)

	r.GaugeFunc("go_goroutines",
		"Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_memstats_heap_inuse_bytes",
		"Bytes in in-use heap spans.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapInuse)
		})
	r.GaugeFunc("specrun_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	s.gate.OnWait(func(d time.Duration) { m.gateWait.Observe(d.Seconds()) })
	return m
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// statusRecorder captures the status code a handler wrote (200 if it only
// ever called Write).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming.  The
// embedded interface does not promote Flusher, and without this the SSE
// handler's type assertion would fail behind the metrics middleware.
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// handle mounts fn on mux instrumented with per-route metrics and request
// logging.  The pattern string itself is the route label — Go's ServeMux
// does not expose the matched pattern to middleware wrapped around it, so
// instrumentation happens per registration, keeping label cardinality fixed
// at the route table instead of unbounded request paths.
func (s *Server) handle(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		fn(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.httpReqs.With(pattern, r.Method, strconv.Itoa(rec.status)).Inc()
		s.metrics.httpDur.With(pattern).Observe(elapsed.Seconds())
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"route", pattern,
			"status", rec.status,
			"duration_ms", float64(elapsed.Microseconds()) / 1000,
		}
		if cache := rec.Header().Get("X-Cache"); cache != "" {
			attrs = append(attrs, "cache", cache)
		}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, "job", id)
		}
		s.logger.Info("request", attrs...)
	})
}
