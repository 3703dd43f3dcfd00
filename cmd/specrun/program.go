package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specrun/internal/asm"
	"specrun/internal/core"
	"specrun/internal/prog"
	"specrun/internal/server"
)

// readInput reads an interchange input: a file path, or "-" for stdin.
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// writeOutput writes to path, or stdout for "-"/empty.
func writeOutput(path string, data []byte) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadProgram reads a program in either interchange form — canonical .sprog
// binary (detected by magic) or assembly text — and returns it with its
// canonical encoding.
func loadProgram(path string) (*asm.Program, []byte, error) {
	data, err := readInput(path)
	if err != nil {
		return nil, nil, err
	}
	if bytes.HasPrefix(data, []byte(prog.Magic)) {
		p, err := prog.Decode(data)
		if err != nil {
			return nil, nil, err
		}
		return p, data, nil
	}
	name := path
	if name == "-" {
		name = "stdin"
	}
	p, err := asm.Parse(name, string(data))
	if err != nil {
		return nil, nil, err
	}
	bin, err := prog.Encode(p)
	if err != nil {
		return nil, nil, err
	}
	return p, bin, nil
}

// runAsm implements `specrun asm`: assemble a source file into the
// canonical .sprog interchange binary.
//
//	specrun asm prog.asm                 writes prog.sprog
//	specrun asm -o - prog.asm            binary on stdout
func runAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ContinueOnError)
	out := fs.String("o", "", `output path ("-" = stdout; default: input with `+prog.Ext+` extension)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm: exactly one input file (or -) required")
	}
	in := fs.Arg(0)
	_, bin, err := loadProgram(in)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		if in == "-" {
			dst = "-"
		} else {
			stem := strings.TrimSuffix(strings.TrimSuffix(in, ".asm"), ".s")
			dst = stem + prog.Ext
		}
	}
	if err := writeOutput(dst, bin); err != nil {
		return err
	}
	if dst != "-" {
		fmt.Fprintf(os.Stderr, "asm: %s (%d bytes, sha256 %.12s)\n", dst, len(bin), prog.Hash(bin))
	}
	return nil
}

// runDisasm implements `specrun disasm`: print the canonical disassembly of
// a .sprog binary (or re-canonicalize assembly text).  The output re-parses
// to a byte-identical binary.
func runDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	out := fs.String("o", "-", `output path ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("disasm: exactly one input file (or -) required")
	}
	p, _, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeOutput(*out, []byte(p.Disassemble()))
}

// runRun implements `specrun run`: execute an interchange program (asm text
// or .sprog binary) on the simulated Table 1 processor and report its
// pipeline statistics.  --json emits the same canonical document as
// POST /v1/run/program.
func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	mode := fs.String("runahead", "original", "none | original | precise | vector")
	secure := fs.Bool("secure", false, "enable the §6 SL-cache defense")
	skipINV := fs.Bool("skipinv", false, "enable the skip-INV-branch restriction")
	maxCycles := fs.Uint64("max-cycles", 0, "cycle budget (0 = default)")
	jsonOut := fs.Bool("json", false, "emit the canonical JSON document (matches POST /v1/run/program)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: exactly one program file (or -) required")
	}
	p, bin, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if err := cfg.Runahead.Kind.UnmarshalText([]byte(*mode)); err != nil {
		return err
	}
	cfg.Secure.Enabled = *secure
	cfg.Runahead.SkipINVBranch = *skipINV
	if err := core.Validate(cfg); err != nil {
		return err
	}
	st, err := core.RunProgramStatsCtx(context.Background(), cfg, p, *maxCycles, nil)
	if err != nil {
		return err
	}
	if *jsonOut {
		b, err := server.Encode(server.ProgramResponse{
			Sprog: prog.Hash(bin),
			Insts: len(p.Insts),
			Base:  p.Base,
			Stats: st,
		})
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	fmt.Printf("program: %d insts at %#x, sprog sha256 %.12s (%d bytes)\n",
		len(p.Insts), p.Base, prog.Hash(bin), len(bin))
	fmt.Printf("cycles=%d committed=%d ipc=%.3f fetched=%d issued=%d squashed=%d\n",
		st.Cycles, st.Committed, st.IPC(), st.Fetched, st.Issued, st.Squashed)
	fmt.Printf("branches=%d mispredicts=%d runahead: episodes=%d cycles=%d inv-branches=%d pseudo-retired=%d\n",
		st.CondBranches, st.CondMispredicts, st.RunaheadEpisodes, st.RunaheadCycles, st.INVBranches, st.PseudoRetired)
	return nil
}
