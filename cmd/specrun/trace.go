package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/proggen"
	"specrun/internal/trace"
	"specrun/internal/workload"
)

// runTrace implements `specrun trace`: render any workload kernel, random
// proggen program or attack PoC as a per-uop pipeline lifecycle trace.
//
//	specrun trace --workload Gems --format kanata --out gems.kanata
//	specrun trace --attack pht --format o3 --window 2000:4000
//	specrun trace --seed 7 --format jsonl | jq .stage
//
// Formats: kanata (Konata pipeline viewer), o3 (gem5 O3PipeView), jsonl
// (one event per line), csv (per-cycle occupancy samples — the sampler,
// not the lifecycle tracer).  --window start:end keeps only uops fetched
// in that cycle interval (a bare number means [0,n)), following each kept
// uop to retirement or squash.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	bench := fs.String("workload", "", "Fig. 7 kernel to trace (default Gems)")
	seed := fs.Int64("seed", -1, "trace the proggen random program with this seed instead")
	attackVar := fs.String("attack", "", "trace an attack PoC: pht | btb | rsb-overwrite | rsb-flush")
	format := fs.String("format", "kanata", "kanata | o3 | jsonl | csv (csv = occupancy samples)")
	window := fs.String("window", "", "cycle window start:end (or a bare end) filtering on fetch cycle")
	configArg := fs.String("config", "", "partial config overlay: inline JSON or a path to a JSON file")
	out := fs.String("out", "", "output file (default stdout)")
	maxCycles := fs.Uint64("max-cycles", 50_000_000, "simulation budget")
	every := fs.Uint64("every", 50, "cycles between samples (csv format only)")
	noRA := fs.Bool("no-runahead", false, "trace the baseline (no-runahead) machine")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	if *noRA {
		cfg = core.BaselineConfig()
	}
	if *configArg != "" {
		// Inline JSON, or the path of a file holding it.
		doc := []byte(*configArg)
		var err error
		if !strings.HasPrefix(strings.TrimSpace(*configArg), "{") {
			if doc, err = os.ReadFile(*configArg); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
		}
		if cfg, err = core.Overlay(cfg, doc); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}

	prog, name, err := traceProgram(*bench, *seed, *attackVar, &cfg)
	if err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	m := core.NewMachine(cfg, prog)
	var enc trace.Encoder
	if *format == "csv" {
		if *window != "" {
			return fmt.Errorf("trace: --window applies to lifecycle formats, not csv occupancy samples")
		}
		m.SetSampler(*every, cpu.CSVSampler(w))
	} else {
		e, ok := trace.NewEncoder(*format, w)
		if !ok {
			return fmt.Errorf("trace: unknown format %q (kanata | o3 | jsonl | csv)", *format)
		}
		if *window != "" {
			start, end, err := parseWindow(*window)
			if err != nil {
				return err
			}
			e = trace.Window(e, start, end)
		}
		enc = e
		m.SetTracer(enc.Event)
	}

	if err := m.Run(*maxCycles); err != nil && !errors.Is(err, cpu.ErrMaxCycles) {
		return err
	}
	if enc != nil {
		if err := enc.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "traced %s: %d cycles, %d committed, %d episodes\n",
		name, m.Stats().Cycles, m.Stats().Committed, m.Stats().RunaheadEpisodes)
	return nil
}

// traceProgram picks the program to trace; the selectors are mutually
// exclusive and default to the Gems kernel.  An attack PoC also adjusts cfg
// for its variant (attack.ConfigFor), the machine attack.Run gives it.
func traceProgram(bench string, seed int64, attackVar string, cfg *core.Config) (*asm.Program, string, error) {
	selectors := 0
	for _, set := range []bool{bench != "", seed >= 0, attackVar != ""} {
		if set {
			selectors++
		}
	}
	if selectors > 1 {
		return nil, "", fmt.Errorf("trace: --workload, --seed and --attack are mutually exclusive")
	}
	switch {
	case attackVar != "":
		p := attack.DefaultParams()
		if err := p.Variant.UnmarshalText([]byte(attackVar)); err != nil {
			return nil, "", err
		}
		prog, _, err := attack.Build(p)
		if err != nil {
			return nil, "", err
		}
		*cfg = attack.ConfigFor(p.Variant, *cfg)
		return prog, "attack/" + attackVar, nil
	case seed >= 0:
		return proggen.Generate(seed, proggen.DefaultOptions()), fmt.Sprintf("proggen/%d", seed), nil
	default:
		if bench == "" {
			bench = "Gems"
		}
		k, err := workload.ByName(bench)
		if err != nil {
			return nil, "", err
		}
		return k.Build(), k.Name, nil
	}
}

// parseWindow parses "start:end" (or a bare "end", meaning [0,end)).
func parseWindow(s string) (start, end uint64, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		end, err = strconv.ParseUint(s, 10, 64)
		return 0, end, err
	}
	if lo != "" {
		if start, err = strconv.ParseUint(lo, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("trace: bad window %q: %w", s, err)
		}
	}
	if hi != "" {
		if end, err = strconv.ParseUint(hi, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("trace: bad window %q: %w", s, err)
		}
	}
	if end != 0 && end <= start {
		return 0, 0, fmt.Errorf("trace: empty window %q", s)
	}
	return start, end, nil
}
