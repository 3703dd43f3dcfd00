// Package specrun is the public facade of the SPECRUN reproduction: a
// cycle-level out-of-order processor simulator with runahead execution, the
// SPECRUN transient-execution attack (DAC 2024), and the paper's secure
// runahead defense.
//
// Quick start:
//
//	cfg := specrun.DefaultConfig()          // Table 1 machine with runahead
//	res, err := specrun.RunFig9(cfg)        // the Fig. 9 PoC
//	if b, ok := res.LeakedByte(); ok { ... }
//
// The heavy lifting lives in the internal packages; this package re-exports
// the experiment-level API used by the command-line tools, the examples and
// the benchmark harness.  Multi-run drivers shard their independent
// simulations across a worker pool (specrun/internal/sweep) and take a
// context (cancellation) and a worker count (0 = GOMAXPROCS).
package specrun

import (
	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/difftest"
	"specrun/internal/prog"
	"specrun/internal/runahead"
	"specrun/internal/server"
)

// Config is the machine configuration (Table 1 defaults).
type Config = core.Config

// Machine is one simulated processor executing one program.
type Machine = core.Machine

// AttackResult is the outcome of one PoC run.
type AttackResult = core.AttackResult

// AttackParams configures a PoC build.
type AttackParams = attack.Params

// IPCRow is one bar pair of Fig. 7.
type IPCRow = core.IPCRow

// RunaheadKind selects the runahead variant.
type RunaheadKind = runahead.Kind

// Runahead variants.
const (
	RunaheadNone     = runahead.KindNone
	RunaheadOriginal = runahead.KindOriginal
	RunaheadPrecise  = runahead.KindPrecise
	RunaheadVector   = runahead.KindVector
)

// Configuration constructors.
var (
	DefaultConfig  = core.DefaultConfig
	BaselineConfig = core.BaselineConfig
	SecureConfig   = core.SecureConfig
	VariantConfig  = core.VariantConfig
)

// Experiment drivers (one per table/figure of the paper).  The multi-run
// drivers shard their independent simulations across a worker pool and take
// a context and a worker count (0 = GOMAXPROCS).
var (
	RunFig9          = core.RunFig9
	RunFig10         = core.RunFig10
	RunFig11         = core.RunFig11
	RunIPCComparison = core.RunIPCComparison
	RunDefense       = core.RunDefense
	RunVariantMatrix = core.RunVariantMatrix
	RunAttack        = core.RunAttack
	NewMachine       = core.NewMachine
	RunProgram       = core.RunProgram
)

// Report formatters.
var (
	Table1         = core.Table1
	FormatIPC      = core.FormatIPC
	FormatProbe    = core.FormatProbe
	FormatWindows  = core.FormatWindows
	FormatDefense  = core.FormatDefense
	FormatVariants = core.FormatVariants
	MeanSpeedup    = core.MeanSpeedup
)

// DefaultAttackParams returns the Fig. 8/9 attack parameters.
func DefaultAttackParams() AttackParams { return attack.DefaultParams() }

// Server is the simulation-as-a-service HTTP API behind `specrun serve`:
// one POST /v1/run/{driver} endpoint per paper artifact, sweeps, async
// jobs, and a content-addressed result cache with singleflight.  Mount
// NewServer(...).Handler() on any http.Server to embed it.
type Server = server.Server

// ServerOptions configures NewServer (worker budget, cache bound).
type ServerOptions = server.Options

// SweepSpec is the grid specification shared by `specrun sweep` and the
// POST /v1/sweep endpoint.
type SweepSpec = server.SweepSpec

// NewServer builds the simulation service.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// Serving helpers: the canonical hash behind the result cache, the
// canonical JSON encoder shared by the API and the CLI, and the build
// version reported by `specrun version` and GET /v1/stats.
var (
	NormalizeConfig = core.Normalize
	HashKey         = core.HashKey
	EncodeJSON      = server.Encode
	Version         = server.Version
)

// Program is an assembled program: instructions, data segments and symbols.
type Program = asm.Program

// ProgramExt is the canonical interchange-binary file extension.
const ProgramExt = prog.Ext

// Program interchange (specrun/internal/prog): assembly text and the
// canonical versioned .sprog binary are two spellings of the same program,
// and the binary's SHA-256 is its content address — the cache key behind
// POST /v1/run/program and the identity printed by `specrun asm|run`.
var (
	ParseAsm           = asm.Parse        // asm text → *Program
	EncodeProgram      = prog.Encode      // *Program → canonical .sprog bytes
	DecodeProgram      = prog.Decode      // .sprog bytes → *Program (strict)
	AssembleProgram    = prog.Assemble    // asm text → .sprog bytes
	DisassembleProgram = prog.Disassemble // .sprog bytes → canonical asm text
	ProgramHash        = prog.Hash        // content address of .sprog bytes
	RunProgramStats    = core.RunProgramStats
)

// Differential fuzzing (specrun/internal/difftest): random programs run in
// lockstep on the in-order reference interpreter and the OoO pipeline
// across the runahead × secure × ROB matrix — the golden-model oracle
// behind `specrun fuzz` and POST /v1/run/fuzz.
type (
	// FuzzSpec parameterises one campaign (seeds, matrix, body length).
	FuzzSpec = difftest.CampaignSpec
	// FuzzReport is the deterministic campaign outcome.
	FuzzReport = difftest.Report
	// FuzzDivergence is one golden-model violation, with its minimized
	// reproducer when the shrinker ran.
	FuzzDivergence = difftest.Divergence
)

// RunFuzzCampaign executes a differential fuzzing campaign on the sweep
// engine; FuzzMatrix exposes the configuration matrix it checks.
var (
	RunFuzzCampaign = difftest.Run
	FuzzMatrix      = difftest.Matrix
)
