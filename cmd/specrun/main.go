// Command specrun regenerates every table and figure of the SPECRUN paper
// (DAC 2024) on the simulated Table 1 processor.
//
// Usage:
//
//	specrun config             print Table 1
//	specrun ipc [flags]        Fig. 7  (normalized IPC, 6 benchmarks;
//	                           --runahead precise|vector, --table1-rf)
//	specrun fig9               Fig. 9  (PHT PoC probe sweep)
//	specrun window             Fig. 10 (N1/N2/N3 transient windows)
//	specrun fig11              Fig. 11 (beyond-the-ROB leak)
//	specrun defense            §6      (SL cache + skip-INV mitigations)
//	specrun variants           §4.3/4.4 applicability matrix
//	specrun attack [flags]     one PoC run (see flags below)
//	specrun leak [flags]       extract a multi-byte secret
//	specrun sweep [flags]      user-defined parameter grid on the parallel
//	                           sweep engine (JSON/CSV output)
//	specrun fuzz [flags]       differential fuzzing campaign: random programs
//	                           in lockstep on the reference interpreter and
//	                           the OoO pipeline across the config matrix
//	specrun bench [flags]      simulator throughput and allocation as one
//	                           JSON document (the CI perf gate)
//	specrun serve [flags]      simulation-as-a-service HTTP API with a
//	                           content-addressed result cache, /metrics and
//	                           structured request logging
//	specrun trace [flags]      per-uop pipeline lifecycle trace of a kernel,
//	                           proggen seed or attack PoC (Kanata, gem5
//	                           O3PipeView, JSONL or occupancy CSV)
//	specrun asm [flags] file   assemble source to the canonical .sprog
//	                           interchange binary
//	specrun disasm [flags] f   canonical disassembly of a .sprog binary
//	                           (round-trips to identical bytes)
//	specrun run [flags] file   execute an interchange program (asm or .sprog)
//	                           and report pipeline statistics
//	specrun version            module version / VCS revision
//	specrun all                everything above, in paper order
//
// The figure subcommands run their driver through the same server.Run call
// as the corresponding `specrun serve` endpoint; --format json emits its
// canonical JSON document, the default renders it as a table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/runahead"
	"specrun/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "config":
		fmt.Print(core.Table1(core.DefaultConfig()))
	case "ipc":
		err = runIPC(args)
	case "fig9":
		err = runFig9(args)
	case "window":
		err = runWindow(args)
	case "fig11":
		err = runFig11(args)
	case "defense":
		err = runDefense(args)
	case "variants":
		err = runVariants(args)
	case "attack":
		err = runAttack(args)
	case "leak":
		err = runLeak(args)
	case "sweep":
		err = runSweep(args)
	case "fuzz":
		err = runFuzz(args)
	case "bench":
		err = runBench(args)
	case "serve":
		err = runServe(args)
	case "version":
		fmt.Println("specrun", server.Version())
	case "trace":
		err = runTrace(args)
	case "asm":
		err = runAsm(args)
	case "disasm":
		err = runDisasm(args)
	case "run":
		err = runRun(args)
	case "all":
		fmt.Print(core.Table1(core.DefaultConfig()))
		fmt.Println()
		for _, f := range []func([]string) error{runIPC, runFig9, runWindow, runFig11, runDefense, runVariants} {
			if err = f(nil); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "specrun:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: specrun <config|ipc|fig9|window|fig11|defense|variants|attack|leak|sweep|fuzz|bench|serve|version|trace|asm|disasm|run|all> [flags]`)
}

// figureFlags starts a figure subcommand's flag set with the --format flag
// every figure subcommand shares.
func figureFlags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return fs, fs.String("format", "table", "table | json (json matches the HTTP API response body)")
}

// printFigure runs a server driver through server.Run — the path the HTTP
// API and the figures benchmark share — and prints the result either as its
// canonical JSON encoding, byte-identical to the body of POST
// /v1/run/{driver} for the same configuration, or through render.
func printFigure(name, format, driver string, cfg core.Config, render func(res any)) error {
	if format != "table" && format != "json" {
		return fmt.Errorf("%s: unknown format %q", name, format)
	}
	res, err := server.Run(context.Background(), driver, cfg, attack.DefaultParams(), 0)
	if err != nil {
		return err
	}
	if format == "table" {
		render(res)
		return nil
	}
	b, err := server.Encode(res)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// runFigure implements a figure subcommand that takes only --format and
// runs on the Table 1 machine.
func runFigure(name, driver string, args []string, render func(res any)) error {
	fs, format := figureFlags(name)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return printFigure(name, *format, driver, core.DefaultConfig(), render)
}

func runIPC(args []string) error {
	fs, format := figureFlags("ipc")
	mode := fs.String("runahead", "original", "runahead machine's variant: original | precise | vector")
	table1RF := fs.Bool("table1-rf", false, "use the literal Table 1 register-file sizes (an ablation: 80/40/40 starve the window)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if err := cfg.Runahead.Kind.UnmarshalText([]byte(*mode)); err != nil || cfg.Runahead.Kind == runahead.KindNone {
		return fmt.Errorf("ipc: unknown runahead variant %q (original|precise|vector)", *mode)
	}
	if *table1RF {
		cfg = cpu.Table1RegisterFiles(cfg)
	}
	return printFigure("ipc", *format, "ipc", cfg, func(res any) {
		fmt.Print(core.FormatIPC(res.(server.IPCResponse).Rows))
	})
}

func runFig9(args []string) error {
	return runFigure("fig9", "fig9", args, func(res any) {
		fmt.Println("Fig. 9: probe access time after SPECRUN (secret byte 86)")
		fmt.Print(core.FormatProbe(res.(core.AttackResult), 12))
	})
}

func runWindow(args []string) error {
	return runFigure("window", "fig10", args, func(res any) {
		r := res.(server.Fig10Response)
		fmt.Print(core.FormatWindows(r.N1, r.N2, r.N3))
	})
}

func runFig11(args []string) error {
	return runFigure("fig11", "fig11", args, func(res any) {
		r := res.(core.Fig11Result)
		fmt.Println("Fig. 11: secret access pushed beyond the ROB (300 nops, secret 127)")
		fmt.Println("-- no-runahead machine:")
		fmt.Print(core.FormatProbe(r.NoRunahead, 8))
		fmt.Println("-- runahead machine:")
		fmt.Print(core.FormatProbe(r.Runahead, 8))
	})
}

func runDefense(args []string) error {
	return runFigure("defense", "defense", args, func(res any) {
		fmt.Print(core.FormatDefense(res.(core.DefenseResult)))
	})
}

func runVariants(args []string) error {
	return runFigure("variants", "variants", args, func(res any) {
		fmt.Print(core.FormatVariants(res.(server.VariantsResponse).Rows))
	})
}

func attackFlags(args []string) (attack.Params, core.Config, error) {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	variant := fs.String("variant", "pht", "pht | btb | rsb-overwrite | rsb-flush")
	mode := fs.String("runahead", "original", "none | original | precise | vector")
	secure := fs.Bool("secure", false, "enable the §6 SL-cache defense")
	skipINV := fs.Bool("skipinv", false, "enable the skip-INV-branch restriction")
	pad := fs.Int("pad", 0, "nops between branch and secret access (Fig. 11)")
	secret := fs.Int("secret", 86, "secret byte value to plant")
	if err := fs.Parse(args); err != nil {
		return attack.Params{}, core.Config{}, err
	}
	p := attack.DefaultParams()
	b, err := attack.SecretByte(*secret)
	if err != nil {
		return p, core.Config{}, fmt.Errorf("attack: %w", err)
	}
	p.Secret = []byte{b}
	p.NopPad = *pad
	if err := p.Variant.UnmarshalText([]byte(*variant)); err != nil {
		return p, core.Config{}, err
	}
	if err := p.Validate(); err != nil {
		return p, core.Config{}, err
	}
	cfg := core.DefaultConfig()
	if err := cfg.Runahead.Kind.UnmarshalText([]byte(*mode)); err != nil {
		return p, cfg, err
	}
	cfg.Secure.Enabled = *secure
	cfg.Runahead.SkipINVBranch = *skipINV
	return p, cfg, nil
}

func runAttack(args []string) error {
	p, cfg, err := attackFlags(args)
	if err != nil {
		return err
	}
	r, err := core.RunAttack(cfg, p)
	if err != nil {
		return err
	}
	fmt.Printf("variant=%s episodes=%d INV-branches=%d\n",
		p.Variant, r.Stats.RunaheadEpisodes, r.Stats.INVBranches)
	fmt.Print(core.FormatProbe(r, 12))
	return nil
}

func runLeak(args []string) error {
	fs := flag.NewFlagSet("leak", flag.ContinueOnError)
	secret := fs.String("text", "SPECRUN", "secret string to plant and extract")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := attack.DefaultParams()
	p.Secret = []byte(*secret)
	if err := p.Validate(); err != nil {
		return err
	}
	got, results, err := attack.LeakSecret(context.Background(), core.DefaultConfig(), p, 0)
	if err != nil {
		return err
	}
	for i, r := range results {
		status := "miss"
		if r.Leaked {
			status = "hit"
		}
		fmt.Printf("byte %2d: %3d %q  (%s, lat %d vs median %d)\n",
			i, got[i], string(rune(got[i])), status, r.BestLat, r.Median)
	}
	fmt.Printf("recovered secret: %q\n", string(got))
	return nil
}
