package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"specrun/internal/difftest"
	"specrun/internal/leak"
	"specrun/internal/prog"
	"specrun/internal/server"
	"specrun/internal/sweep"
)

// runFuzz implements `specrun fuzz`: a fuzzing campaign over random
// proggen programs across the runahead × secure × ROB matrix.  By default
// the differential oracle runs each program in lockstep on the reference
// interpreter and the out-of-order pipeline, checking that speculation
// stays architecturally invisible; --interleave hunts cross-run state
// leaks and --leaks runs the microarchitectural leak oracle.  Failing
// seeds are minimized into reproducers fit for a regression table.
//
//	specrun fuzz --seeds 2000 --matrix              full config matrix
//	specrun fuzz --duration 30s --json              time-boxed, JSON report
func runFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seeds := fs.Int("seeds", 1000, "seeds per campaign round")
	base := fs.Int64("seed-base", 1, "first seed")
	matrix := fs.Bool("matrix", false, "full runahead×secure×ROB matrix (default: quick 8-config set)")
	bodyLen := fs.Int("len", 0, "generated program body length (0 = generator default)")
	duration := fs.Duration("duration", 0, "keep fuzzing fresh seed rounds until this wall-clock budget is spent")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	noShrink := fs.Bool("no-shrink", false, "report divergences without minimizing them")
	interleave := fs.Bool("interleave", false, "cross-run state-leak hunt: run A, B, A' on one reused machine and require A == A'")
	leaks := fs.Bool("leaks", false, "microarchitectural leak oracle: run each program twice with two secret valuations and diff the speculative observation traces")
	jsonOut := fs.Bool("json", false, "emit the campaign report as canonical JSON (matches POST /v1/run/fuzz)")
	quiet := fs.Bool("quiet", false, "suppress the progress line on stderr")
	reproDir := fs.String("repro-dir", "", "save each minimized reproducer as .sprog binary + .asm disassembly under this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := difftest.CampaignSpec{
		Seeds:      *seeds,
		SeedBase:   *base,
		Len:        *bodyLen,
		NoShrink:   *noShrink,
		Interleave: *interleave,
		Leaks:      *leaks,
	}
	if *matrix {
		spec.Matrix = "full"
	}
	// Resolve up front: duration mode advances SeedBase by spec.Seeds each
	// round, which must be the effective count, not an unset zero (or
	// every round would re-fuzz the same seed range).
	spec, _, err := spec.Resolve()
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := sweep.Options{Workers: *workers}
	if !*quiet {
		opt.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfuzz: %d/%d seeds", done, total)
		}
	}

	// The engine-specific part: each oracle's report, its reproducers, its
	// text rendering and what makes it unclean.  Leaks are findings, not
	// failures — a leaky insecure configuration is the behaviour the paper
	// documents — so a leak campaign fails only on oracle errors
	// (run_error / seq_divergence).
	var (
		report  any
		configs int
		repros  []*difftest.Reproducer
		render  func()
		unclean error
		runErr  error
	)
	if spec.Leaks {
		var r leak.Report
		r, runErr = fuzzRounds(ctx, spec, opt, *duration, *quiet, leak.Run, leak.RunSeeds)
		for _, f := range r.Findings {
			repros = append(repros, f.Minimized)
		}
		report, configs, render = r, r.Configs, func() { printLeakReport(r) }
		if !r.Clean {
			unclean = fmt.Errorf("fuzz: %d oracle errors across %d runs", r.Errors, r.Runs)
		}
	} else {
		var r difftest.Report
		r, runErr = fuzzRounds(ctx, spec, opt, *duration, *quiet, difftest.Run, difftest.Run)
		for _, d := range r.Divergences {
			repros = append(repros, d.Minimized)
		}
		report, configs, render = r, r.Configs, func() { printFuzzReport(r) }
		if !r.Clean {
			unclean = fmt.Errorf("fuzz: %d divergences across %d runs", len(r.Divergences), r.Runs)
		}
	}

	if configs == 0 {
		return runErr // the campaign never started
	}
	if err := saveRepros(*reproDir, repros); err != nil {
		return err
	}
	if *jsonOut {
		b, err := server.Encode(report)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
	} else {
		render()
	}
	if runErr != nil {
		return runErr
	}
	return unclean
}

// fuzzRounds runs one campaign round with first, or under --duration
// successive rounds over fresh seed ranges, the later ones with later,
// merged in round order: the same seed range always produces the same rows.
// A leak campaign's later rounds skip its round-independent corpus.  A
// cancelled campaign (Ctrl-C) still yields its partial report — findings
// already made must reach the user, not die with the interrupt.
func fuzzRounds[R interface{ Merge(R) R }](ctx context.Context, spec difftest.CampaignSpec, opt sweep.Options, duration time.Duration, quiet bool,
	first, later func(context.Context, difftest.CampaignSpec, sweep.Options) (R, error)) (R, error) {
	start := time.Now()
	report, err := first(ctx, spec, opt)
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	for err == nil && duration > 0 && time.Since(start) < duration && ctx.Err() == nil {
		spec.SeedBase += int64(spec.Seeds)
		var next R
		next, err = later(ctx, spec, opt)
		if !quiet {
			fmt.Fprintln(os.Stderr)
		}
		report = report.Merge(next)
	}
	return report, err
}

// saveRepros writes each minimized reproducer's interchange artifacts —
// repro-seed<N>.sprog (canonical binary) and repro-seed<N>.asm (its
// disassembly) — under dir.  Reproducers are deduplicated by seed; a nil or
// artifact-less reproducer is skipped.  No-op when dir is empty.
func saveRepros(dir string, repros []*difftest.Reproducer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seen := make(map[int64]bool)
	for _, r := range repros {
		if r == nil || len(r.Sprog) == 0 || seen[r.Seed] {
			continue
		}
		seen[r.Seed] = true
		stem := filepath.Join(dir, fmt.Sprintf("repro-seed%d", r.Seed))
		if err := os.WriteFile(stem+prog.Ext, r.Sprog, 0o644); err != nil {
			return err
		}
		text, err := prog.Disassemble(r.Sprog)
		if err != nil {
			return fmt.Errorf("repro seed %d: %v", r.Seed, err)
		}
		if err := os.WriteFile(stem+".asm", []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fuzz: saved %s%s (%d bytes, sha256 %.12s) and %s.asm\n",
			stem, prog.Ext, len(r.Sprog), prog.Hash(r.Sprog), stem)
	}
	return nil
}

// printRepro renders a minimized reproducer: its identity line, the .sprog
// content address, and the reduced program's disassembly.
func printRepro(min *difftest.Reproducer) {
	fmt.Printf("    minimized reproducer: seed=%d len=%d options=%+v\n",
		min.Seed, min.Options.Len, min.Options)
	if len(min.Sprog) == 0 {
		return
	}
	text, err := prog.Disassemble(min.Sprog)
	if err != nil {
		return
	}
	fmt.Printf("    sprog: %d bytes, sha256 %.12s\n", len(min.Sprog), prog.Hash(min.Sprog))
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		fmt.Printf("      %s\n", line)
	}
}

func printLeakReport(r leak.Report) {
	fmt.Printf("leak oracle: %d seeds × %d configs = %d runs (%s matrix), %d leaks, %d errors\n",
		r.Spec.Seeds, r.Configs, r.Runs, r.Spec.Matrix, r.Leaks, r.Errors)
	fmt.Println("golden attack corpus:")
	fmt.Printf("  %-14s %-24s %8s\n", "program", "config", "result")
	for _, row := range r.Corpus {
		result := "silent"
		switch {
		case row.Error != "":
			result = "ERROR"
		case row.Leak:
			result = "LEAK"
		}
		fmt.Printf("  %-14s %-24s %8s\n", row.Program, row.Config, result)
	}
	fmt.Println("generated seeds:")
	fmt.Printf("  %-24s %8s %8s %8s\n", "config", "runs", "leaks", "errors")
	for _, s := range r.PerConfig {
		fmt.Printf("  %-24s %8d %8d %8d\n", s.Config, s.Runs, s.Leaks, s.Errors)
	}
	for _, f := range r.Findings {
		if f.Kind != leak.KindLeak {
			fmt.Printf("  ERROR seed %d / %s: %s: %s\n", f.Seed, f.Config, f.Kind, f.Detail)
			continue
		}
		fmt.Printf("  leak seed %d / %s: pc=%#x line=%#x via %s\n", f.Seed, f.Config, f.PC, f.Line, f.Event)
		if f.Minimized != nil {
			printRepro(f.Minimized)
		}
	}
}

func printFuzzReport(r difftest.Report) {
	fmt.Printf("differential fuzz: %d seeds × %d configs = %d runs (%s matrix)\n",
		r.Spec.Seeds, r.Configs, r.Runs, r.Spec.Matrix)
	fmt.Printf("%-24s %8s %10s %12s %14s %6s\n", "config", "runs", "divergent", "episodes", "committed", "")
	for _, s := range r.PerConfig {
		status := "ok"
		if s.Divergences > 0 {
			status = "FAIL"
		}
		fmt.Printf("%-24s %8d %10d %12d %14d %6s\n",
			s.Config, s.Runs, s.Divergences, s.Episodes, s.Committed, status)
	}
	if r.Clean {
		fmt.Println("clean: every configuration matched the in-order reference on every seed")
		return
	}
	fmt.Printf("\n%d divergences:\n", len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Printf("  seed %d / %s: %s: %s\n", d.Seed, d.Config, d.Kind, d.Detail)
		if d.Minimized != nil {
			printRepro(d.Minimized)
		}
	}
}
