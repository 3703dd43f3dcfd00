// Package core is the public face of the SPECRUN reproduction: a Machine
// wrapper around the cycle-level CPU model, the Table 1 default
// configuration, and one driver per experiment in the paper's evaluation
// (Fig. 7, Fig. 9, Fig. 10, Fig. 11, the §4.3/§4.4 variants and the §6
// defense).  Command-line tools, examples and benchmarks all go through
// this package.
//
// Every multi-run driver shards its independent simulations across a
// worker pool via specrun/internal/sweep and takes a context (cancellation)
// and a worker count (0 = GOMAXPROCS).  Results are byte-identical at any
// worker count: each job borrows a machine from the CPU model's pool
// (cpu.Borrow), one per worker per machine shape, which Reset has rewound to
// its just-constructed state, so no job observes another's residue.  Only
// RunProgram builds a fresh machine, because it hands the machine to its
// caller.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/cpu"
	"specrun/internal/runahead"
	"specrun/internal/sweep"
	"specrun/internal/workload"
)

// Config is the machine configuration (re-exported from the CPU model).
type Config = cpu.Config

// DefaultConfig returns the Table 1 processor with original runahead.
func DefaultConfig() Config { return cpu.DefaultConfig() }

// BaselineConfig returns the Table 1 processor with runahead disabled.
func BaselineConfig() Config {
	cfg := cpu.DefaultConfig()
	cfg.Runahead.Kind = runahead.KindNone
	return cfg
}

// SecureConfig returns the Table 1 processor with the §6 SL-cache defense.
func SecureConfig() Config {
	cfg := cpu.DefaultConfig()
	cfg.Secure.Enabled = true
	return cfg
}

// VariantConfig returns the Table 1 processor running a runahead variant.
func VariantConfig(kind runahead.Kind) Config {
	cfg := cpu.DefaultConfig()
	cfg.Runahead.Kind = kind
	return cfg
}

// Machine is one simulated processor instance executing one program.
type Machine struct {
	*cpu.CPU
	Prog *asm.Program
}

// NewMachine builds a machine running prog.
func NewMachine(cfg Config, prog *asm.Program) *Machine {
	return &Machine{CPU: cpu.New(cfg, prog), Prog: prog}
}

// Reset rewinds the machine to its just-constructed state and loads prog,
// reusing every internal allocation (caches, predictor tables, uop pool,
// memory pages).  A reset machine produces byte-identical statistics to a
// fresh NewMachine(cfg, prog) — the property the sweep drivers rely on to
// run one machine per worker instead of one per job.
func (m *Machine) Reset(prog *asm.Program) {
	m.CPU.Reset(prog)
	m.Prog = prog
}

// defaultBudget bounds experiment simulations.
const defaultBudget = 50_000_000

// RunProgram executes prog to completion on a fresh machine and returns it.
func RunProgram(cfg Config, prog *asm.Program) (*Machine, error) {
	m := NewMachine(cfg, prog)
	if err := m.Run(defaultBudget); err != nil {
		return nil, err
	}
	return m, nil
}

// PoolStats reports the machine pool every run-to-completion simulation
// borrows from (see cpu.Borrow).
type PoolStats = cpu.PoolStats

// MachinePoolStats returns the current machine-pool counters (served on
// GET /v1/stats and /metrics).
func MachinePoolStats() PoolStats { return cpu.MachinePoolStats() }

// RunProgramStats executes prog to completion on a pooled machine and
// returns the run statistics by value.  Use it instead of RunProgram when
// only the Stats outcome matters: the machine itself is recycled for the
// next job rather than escaping to the caller.
func RunProgramStats(cfg Config, prog *asm.Program) (cpu.Stats, error) {
	return RunProgramStatsCtx(context.Background(), cfg, prog, 0, nil)
}

// DefaultProgramBudget is the cycle budget RunProgram-family functions use
// when the caller does not set one.
const DefaultProgramBudget = defaultBudget

// progressChunk is the slice size RunProgramStatsCtx simulates between
// cancellation checks and progress reports: large enough that the slicing
// is invisible in the run-time profile, small enough that a cancel or a
// progress report waits at most one slice (64K cycles of a tight loop take
// 10-20 ms on a 2-vCPU Xeon host, about 0.35 s under the race detector).
const progressChunk = 1 << 16

// RunProgramStatsCtx is RunProgramStats for service jobs: it executes prog
// on a pooled machine in progressChunk-cycle slices, honouring ctx between
// slices and reporting simulated cycles to onProgress (which may be nil).
// budget zero means DefaultProgramBudget.  The result is identical to an
// unsliced run — CPU.Run is resumable, so slicing does not perturb the
// simulation.
func RunProgramStatsCtx(ctx context.Context, cfg Config, prog *asm.Program, budget uint64, onProgress func(cycles, budget uint64)) (cpu.Stats, error) {
	if budget == 0 {
		budget = DefaultProgramBudget
	}
	m := cpu.Borrow(cfg, prog)
	var err error
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		step := progressChunk
		if done := m.Stats().Cycles; budget-done < uint64(step) {
			step = int(budget - done)
		}
		err = m.Run(uint64(step))
		done := m.Stats().Cycles
		if onProgress != nil {
			onProgress(min(done, budget), budget)
		}
		if err == nil || !errors.Is(err, cpu.ErrMaxCycles) || done >= budget {
			break
		}
	}
	st := m.StatsCopy()
	m.Release()
	if err != nil {
		return cpu.Stats{}, err
	}
	return st, nil
}

// IPCRow is one bar pair of Fig. 7.
type IPCRow struct {
	Name        string     `json:"name"`
	Cycles      [2]uint64  `json:"cycles"` // [no-runahead, runahead]
	Insts       uint64     `json:"insts"`
	IPC         [2]float64 `json:"ipc"`
	Episodes    uint64     `json:"episodes"`
	Speedup     float64    `json:"speedup"` // IPC[1]/IPC[0]
	Description string     `json:"description"`
}

// ipcJob is one simulation of the Fig. 7 grid: kernel × {baseline, runahead}.
type ipcJob struct {
	kernel workload.Kernel
	cfg    Config
	ra     bool // second column (runahead machine)
}

// RunIPCComparison reproduces Fig. 7: every workload kernel on the baseline
// and the runahead machine, reporting normalized IPC.  The 2×len(kernels)
// simulations are independent and shard across `workers` goroutines
// (0 = GOMAXPROCS), honouring ctx; row order follows workload.Kernels().
func RunIPCComparison(ctx context.Context, base Config, workers int) ([]IPCRow, error) {
	raCfg := base
	if raCfg.Runahead.Kind == runahead.KindNone {
		raCfg.Runahead.Kind = runahead.KindOriginal
	}
	noCfg := base
	noCfg.Runahead.Kind = runahead.KindNone

	kernels := workload.Kernels()
	jobs := make([]ipcJob, 0, 2*len(kernels))
	for _, k := range kernels {
		jobs = append(jobs, ipcJob{kernel: k, cfg: noCfg}, ipcJob{kernel: k, cfg: raCfg, ra: true})
	}
	stats, err := sweep.First(ctx, jobs, func(_ context.Context, j ipcJob) (cpu.Stats, error) {
		st, err := RunProgramStats(j.cfg, j.kernel.Build())
		if err != nil {
			return cpu.Stats{}, fmt.Errorf("core: %s (ra=%v): %w", j.kernel.Name, j.ra, err)
		}
		return st, nil
	}, sweep.Options{Workers: workers})
	if err != nil {
		return nil, err
	}

	rows := make([]IPCRow, 0, len(kernels))
	for i, k := range kernels {
		row := IPCRow{Name: k.Name, Description: k.Descr}
		for col, st := range stats[2*i : 2*i+2] {
			row.Cycles[col] = st.Cycles
			row.Insts = st.Committed
			row.IPC[col] = st.IPC()
			if col == 1 {
				row.Episodes = st.RunaheadEpisodes
			}
		}
		row.Speedup = row.IPC[1] / row.IPC[0]
		rows = append(rows, row)
	}
	return rows, nil
}

// MeanSpeedup returns the geometric-mean runahead speedup of a Fig. 7 run.
func MeanSpeedup(rows []IPCRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	prod := 1.0
	for _, r := range rows {
		prod *= r.Speedup
	}
	return math.Pow(prod, 1.0/float64(len(rows)))
}

// AttackResult re-exports the attack outcome type.
type AttackResult = attack.Result

// RunAttack executes one PoC variant on the given machine configuration.
func RunAttack(cfg Config, p attack.Params) (AttackResult, error) {
	return attack.Run(cfg, p)
}

// attackJob pairs a machine configuration with PoC parameters; it is the
// unit every attack-style sweep below shards on.
type attackJob struct {
	cfg Config
	p   attack.Params
}

// runAttackJobs executes a batch of attack runs on the sweep engine.
func runAttackJobs(ctx context.Context, jobs []attackJob, workers int) ([]AttackResult, error) {
	return sweep.First(ctx, jobs, func(_ context.Context, j attackJob) (AttackResult, error) {
		return RunAttack(j.cfg, j.p)
	}, sweep.Options{Workers: workers})
}

// RunFig9 reproduces Fig. 9: the PHT PoC on the runahead machine with
// secret byte 86.
func RunFig9(cfg Config) (AttackResult, error) {
	return RunAttack(cfg, attack.DefaultParams())
}

// Fig11Result pairs the two machines of Fig. 11.
type Fig11Result struct {
	Runahead   AttackResult `json:"runahead"`
	NoRunahead AttackResult `json:"no_runahead"`
}

// RunFig11 reproduces Fig. 11: the nop-padded gadget (secret access beyond
// the ROB, secret byte 127) on a no-runahead and a runahead machine.  The
// two machines simulate concurrently on `workers` goroutines
// (0 = GOMAXPROCS), honouring ctx.
func RunFig11(ctx context.Context, cfg Config, workers int) (Fig11Result, error) {
	p := attack.DefaultParams()
	p.Secret = []byte{127}
	p.NopPad = 300

	no := cfg
	no.Runahead.Kind = runahead.KindNone
	results, err := runAttackJobs(ctx, []attackJob{{cfg, p}, {no, p}}, workers)
	if err != nil {
		return Fig11Result{}, err
	}
	return Fig11Result{Runahead: results[0], NoRunahead: results[1]}, nil
}

// RunFig10 reproduces the N1/N2/N3 window measurements; the three
// scenarios simulate concurrently on `workers` goroutines (0 = GOMAXPROCS),
// honouring ctx.
func RunFig10(ctx context.Context, cfg Config, workers int) (n1, n2, n3 attack.WindowResult, err error) {
	return attack.MeasureAllWindows(ctx, cfg, workers)
}

// DefenseResult compares the attack under the vulnerable and secure machines.
type DefenseResult struct {
	Vulnerable AttackResult `json:"vulnerable"`
	Secure     AttackResult `json:"secure"`
	SkipINV    AttackResult `json:"skip_inv"`
}

// RunDefense reproduces the §6 evaluation: the Fig. 11 attack against the
// vulnerable runahead machine, the SL-cache machine and the skip-INV-branch
// restriction.  The three machines simulate concurrently on `workers`
// goroutines (0 = GOMAXPROCS), honouring ctx.
func RunDefense(ctx context.Context, cfg Config, workers int) (DefenseResult, error) {
	p := attack.DefaultParams()
	p.Secret = []byte{127}
	p.NopPad = 300

	sec := cfg
	sec.Secure.Enabled = true
	skip := cfg
	skip.Runahead.SkipINVBranch = true
	results, err := runAttackJobs(ctx, []attackJob{{cfg, p}, {sec, p}, {skip, p}}, workers)
	if err != nil {
		return DefenseResult{}, err
	}
	return DefenseResult{Vulnerable: results[0], Secure: results[1], SkipINV: results[2]}, nil
}

// VariantOutcome is one row of the §4.3/§4.4 applicability matrix.
type VariantOutcome struct {
	Label  string       `json:"label"`
	Result AttackResult `json:"result"`
}

// RunVariantMatrix runs the PoC across Spectre variants (§4.4) and runahead
// variants (§4.3).  The six PoC runs simulate concurrently on `workers`
// goroutines (0 = GOMAXPROCS), honouring ctx.  Row order is fixed: the four
// Spectre variants on original runahead, then the two runahead variants
// under the PHT attack.
func RunVariantMatrix(ctx context.Context, cfg Config, workers int) ([]VariantOutcome, error) {
	var jobs []attackJob
	var labels []string
	// Spectre variants on original runahead.
	for _, v := range []attack.Variant{attack.VariantPHT, attack.VariantBTB, attack.VariantRSBOverwrite, attack.VariantRSBFlush} {
		p := attack.DefaultParams()
		p.Variant = v
		if v == attack.VariantPHT || v == attack.VariantBTB {
			p.NopPad = 300
		}
		jobs = append(jobs, attackJob{cfg, p})
		labels = append(labels, "spectre-"+v.String())
	}
	// Runahead variants with the PHT attack.
	for _, k := range []runahead.Kind{runahead.KindPrecise, runahead.KindVector} {
		p := attack.DefaultParams()
		p.NopPad = 300
		c := cfg
		c.Runahead.Kind = k
		jobs = append(jobs, attackJob{c, p})
		labels = append(labels, "runahead-"+k.String())
	}
	results, err := runAttackJobs(ctx, jobs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]VariantOutcome, len(jobs))
	for i := range jobs {
		out[i] = VariantOutcome{Label: labels[i], Result: results[i]}
	}
	return out, nil
}
