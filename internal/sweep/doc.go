// Package sweep is the experiment-sweep engine behind every multi-run
// driver in the SPECRUN reproduction.
//
// The paper's evaluation is a pile of independent simulations: each point
// of Fig. 7 is one (kernel, runahead-kind) pair on a Reset pooled machine,
// each row of the §4.3/§4.4 applicability matrix is one (Spectre-variant or
// runahead-variant) PoC run, each Fig. 10 bar is one window scenario, and
// the §6 defense comparison is three attack runs against three machine
// configurations.  The seed repository executed them strictly serially;
// this package shards them across a worker pool while keeping every
// observable result byte-identical to the serial order.
//
// # Engine
//
// [Run] is the core primitive: it maps a job function over a slice of
// inputs on opt.Workers goroutines (defaulting to GOMAXPROCS) and returns
// the outputs in input order — result[i] always corresponds to items[i],
// no matter which worker ran it or when it finished.  Because every
// simulation in this repository is deterministic (fresh *cpu.CPU per job,
// seeded rand in the program generators, no shared mutable state), input
// order determinism makes the whole sweep deterministic: workers=1 and
// workers=N produce identical bytes.
//
// Failure semantics: every job runs to completion or error; all per-job
// errors are captured and returned joined (each wrapped in a [JobError]
// carrying its input index), so one bad grid point does not hide the
// others.  Cancelling the context stops dispatching new jobs and Run
// returns ctx.Err(); jobs never started are never run.  Opting into
// Options.FailFast (what [First] does) instead stops dispatching after
// the first job error, restoring the serial drivers' early exit.
//
// Progress: opt.OnProgress is invoked serially (never concurrently) after
// each job finishes, with the number of completed jobs and the total —
// enough to drive a CLI progress line or a future service-side ETA.
//
// # Grids
//
// [Axis] and [Expand] turn named parameter lists (ROB size, runahead
// kind, Spectre variant, workload kernel, secret byte, ...) into the flat
// job slice Run consumes.  Expansion is row-major with the last axis
// fastest, so grid order — and therefore output order — is stable across
// runs and worker counts.  The `specrun sweep` subcommand is a thin shell
// around Expand + Run.
package sweep
