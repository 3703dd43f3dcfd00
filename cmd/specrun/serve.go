package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specrun/internal/faultinject"
	"specrun/internal/server"
)

// runServe implements `specrun serve`: the simulation-as-a-service HTTP
// API.  Every paper driver is a POST /v1/run/{driver} endpoint, sweeps run
// synchronously at POST /v1/sweep or asynchronously via /v1/jobs, and
// deterministic results are memoized in a content-addressed cache.
//
// A job attempt ends only by returning: done, failed, cancelled (DELETE or
// shutdown) or cut off by --job-timeout.  A failed attempt is retried with
// backoff, up to --max-attempts in all, unless it ran out of cycles or
// deadlocked, which every attempt would.
//
// With --data-dir the service is crash-safe: results persist in a
// content-addressed disk cache and jobs in an append-only journal, so a
// killed process re-runs its interrupted attempts on the next boot (still
// bounded by --max-attempts) and re-serves finished results
// byte-identically.  The first SIGINT/SIGTERM drains gracefully (bounded by
// --drain-timeout); a second signal force-exits immediately — with a data
// dir that is safe, the journal replays on restart.
//
// Prometheus metrics are served on GET /metrics; structured request and
// job logs go to stderr (--log-format json for machine-readable lines,
// --quiet to silence them); --pprof mounts net/http/pprof.
//
// SPECRUN_FAULTS arms the deterministic chaos harness (testing only), e.g.
// SPECRUN_FAULTS="seed=42;rate=8;points=disk.write,fsync".
//
//	specrun serve --addr :8080 --workers 8 --data-dir /var/lib/specrun
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "server-wide simulation budget (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 512, "in-memory result-cache capacity in entries")
	dataDir := fs.String("data-dir", "", "state directory for the disk result cache and job journal (empty = in-memory only, nothing survives restarts)")
	diskCacheMB := fs.Int64("disk-cache-mb", 256, "disk result-cache bound in MiB (with --data-dir)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: time to finish in-flight requests and jobs after the first signal")
	jobTimeout := fs.Duration("job-timeout", 0, "hard bound on a single job attempt (0 = unbounded)")
	maxAttempts := fs.Int("max-attempts", 3, "max execution attempts per job before it fails permanently")
	logFormat := fs.String("log-format", "text", "request/job log encoding: text | json")
	quiet := fs.Bool("quiet", false, "disable request and job logging")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *slog.Logger
	if !*quiet {
		switch *logFormat {
		case "text":
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		case "json":
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		default:
			return fmt.Errorf("serve: unknown log format %q (text | json)", *logFormat)
		}
	}

	if env := os.Getenv("SPECRUN_FAULTS"); env != "" {
		cfg, enabled, err := faultinject.ParseEnv(env)
		if err != nil {
			return fmt.Errorf("serve: SPECRUN_FAULTS: %w", err)
		}
		if enabled {
			faultinject.Enable(cfg)
			fmt.Fprintf(os.Stderr, "specrun serve: CHAOS HARNESS ARMED (%s)\n", env)
		}
	}

	srv := server.New(server.Options{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		DataDir:        *dataDir,
		DiskCacheBytes: *diskCacheMB << 20,
		JobTimeout:     *jobTimeout,
		Retry:          server.RetryPolicy{MaxAttempts: *maxAttempts},
		Logger:         logger,
		EnablePprof:    *enablePprof,
	})
	defer srv.Close()

	// Listen before announcing, so --addr :0 prints the real port — the
	// crash-restart test harness (and humans scripting the server) depend
	// on the "listening on" line carrying a dialable address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "specrun serve: %s listening on %s\n", server.Version(), ln.Addr())

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "specrun serve: %v: draining (up to %v; send again to force exit)\n", sig, *drainTimeout)
	}

	// Graceful path: stop accepting, finish in-flight requests and queued
	// jobs within the drain budget.  A second signal aborts immediately —
	// the journal makes that safe when a data dir is configured.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "specrun serve: second %v: forcing exit\n", sig)
		os.Exit(130)
	}()

	done := make(chan error, 1)
	go func() {
		if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			done <- err
			return
		}
		done <- srv.Drain(drainCtx)
	}()
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "specrun serve: drain incomplete: %v (journaled work resumes on next boot)\n", err)
	}
	return nil
}
