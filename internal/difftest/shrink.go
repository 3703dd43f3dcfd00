package difftest

import (
	"context"

	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// Shrink minimizes the generator options for a seed that diverges under nc:
// it disables one generator feature at a time (keeping any reduction that
// still diverges), bisects the body length down to the smallest failing
// prefix, and finally tries shrinking the scratch buffer.  The returned
// options, with the same seed and config, still reproduce a divergence —
// ready to check in as a regression test.  Shrinking is best-effort: if ctx
// is cancelled the current best reduction is returned.
func Shrink(ctx context.Context, seed int64, opt proggen.Options, nc NamedConfig) proggen.Options {
	return ShrinkWith(ctx, opt, func(o proggen.Options) bool { return diverges(seed, o, nc) })
}

// diverges is the differential oracle's shrink predicate: seed, generated
// with o, still diverges under nc.
func diverges(seed int64, o proggen.Options, nc NamedConfig) bool {
	return len(CheckSeed(seed, o, []NamedConfig{nc}).Divergences) > 0
}

// Failure is one failing (seed, configuration) pair of a campaign report
// and the report field its minimized reproducer goes into.
type Failure struct {
	Seed      int64
	Config    string
	Minimized **Reproducer
}

// ShrinkOncePerSeed is the shrink pass of every campaign engine.  One seed
// typically fails on many configurations for the same root cause (all four
// seeds of the first differential campaign did), so each seed is shrunk
// once — against its first failing configuration in report order, from
// the campaign's generator options popt, with fails as the "still fails"
// predicate — and that reproducer is attached to every failure of the
// seed.  A failure whose configuration is not in cfgs (the reference
// interpreter's "iss") is left alone.  Each shrink holds one slot of the
// worker gate ctx carries, like every other simulation the server runs.
// A cancelled ctx ends the pass with ctx.Err(): the reduction it cut short
// and every later failure stay unminimized.
func ShrinkOncePerSeed(ctx context.Context, popt proggen.Options, cfgs []NamedConfig,
	failures []Failure, fails func(seed int64, o proggen.Options, nc NamedConfig) bool) error {
	byName := make(map[string]NamedConfig, len(cfgs))
	for _, nc := range cfgs {
		byName[nc.Name] = nc
	}
	gate := sweep.GateFrom(ctx)
	shrunk := make(map[int64]*Reproducer)
	for _, f := range failures {
		nc, ok := byName[f.Config]
		if !ok {
			continue
		}
		repro, ok := shrunk[f.Seed]
		if !ok {
			if gate != nil && gate.Acquire(ctx) != nil {
				return ctx.Err() // cancelled while waiting for a slot
			}
			reduced := ShrinkWith(ctx, popt, func(o proggen.Options) bool { return fails(f.Seed, o, nc) })
			if gate != nil {
				gate.Release()
			}
			if err := ctx.Err(); err != nil {
				return err // the reduction may have stopped short
			}
			repro = NewReproducer(f.Seed, reduced, f.Config)
			shrunk[f.Seed] = repro
		}
		*f.Minimized = repro
	}
	return nil
}

// ShrinkWith is the reduction loop over an arbitrary failure predicate:
// both oracles minimize with it (the leak oracle's predicate is "still
// leaks under this config"), so leak reproducers reduce the same way
// divergences do.
func ShrinkWith(ctx context.Context, opt proggen.Options, fails func(proggen.Options) bool) proggen.Options {
	// Feature ablation, most structural first.  Each trial regenerates the
	// whole program (the RNG stream shifts), so a reduction is kept only
	// when the smaller feature set still diverges.
	features := []func(*proggen.Options){
		func(o *proggen.Options) { o.Gadgets = false },
		func(o *proggen.Options) { o.Vector = false },
		func(o *proggen.Options) { o.FloatOps = false },
		func(o *proggen.Options) { o.Calls = false },
		func(o *proggen.Options) { o.Flushes = false },
		func(o *proggen.Options) { o.Loops = false },
	}
	for _, disable := range features {
		if ctx.Err() != nil {
			return opt
		}
		trial := opt
		disable(&trial)
		if trial != opt && fails(trial) {
			opt = trial
		}
	}

	// Bisect the body length: invariant — opt.Len fails.
	lo, hi := 1, opt.Len
	for lo < hi {
		if ctx.Err() != nil {
			return opt
		}
		mid := lo + (hi-lo)/2
		trial := opt
		trial.Len = mid
		if fails(trial) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	opt.Len = hi

	// A smaller scratch buffer makes the reproducer's memory compare (and
	// cache behaviour) easier to reason about.
	if ctx.Err() == nil && opt.BufBytes > 512 {
		trial := opt
		trial.BufBytes = 512
		trial.StackBytes = 256
		if fails(trial) {
			opt = trial
		}
	}
	return opt
}
