package difftest

import (
	"context"
	"fmt"

	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// CampaignSpec parameterises one fuzzing campaign.  It is the wire document
// shared by `specrun fuzz` and POST /v1/run/fuzz; the report for a spec is
// fully deterministic (no wall-clock fields), so results are content-
// addressable like every other driver.
type CampaignSpec struct {
	Seeds    int    `json:"seeds,omitempty"`     // number of seeds (default 1000)
	SeedBase int64  `json:"seed_base,omitempty"` // first seed (default 1)
	Matrix   string `json:"matrix,omitempty"`    // "quick" (default) | "full"
	Len      int    `json:"len,omitempty"`       // proggen body length (0 = default)
	NoShrink bool   `json:"no_shrink,omitempty"` // skip minimizing failing seeds
	// Interleave switches the oracle from per-seed ISS lockstep (CheckSeed)
	// to the cross-run state-leak hunt (CheckInterleave): each seed's
	// program runs twice on one reused machine with an unrelated program in
	// between, and the two runs must be identical.
	Interleave bool `json:"interleave,omitempty"`
	// Leaks switches the campaign to the microarchitectural leak oracle
	// (specrun/internal/leak): each seed's program runs twice with two
	// secret valuations and the speculative observation traces are diffed.
	// The leak engine owns the execution (leak.Run); difftest.Run rejects a
	// Leaks spec.  The field lives here so the one wire document — and its
	// content-addressed cache key — covers both engines (omitempty keeps
	// every pre-existing spec hash unchanged).
	Leaks bool `json:"leaks,omitempty"`
}

// WithDefaults fills the CLI-equivalent defaults, so an explicit default and
// an omitted field run (and content-hash) identically.
func (s CampaignSpec) WithDefaults() CampaignSpec {
	if s.Seeds == 0 {
		s.Seeds = 1000
	}
	if s.SeedBase == 0 {
		s.SeedBase = 1
	}
	if s.Matrix == "" {
		s.Matrix = "quick"
	}
	if s.Len == 0 {
		s.Len = proggen.DefaultOptions().Len
	}
	return s
}

// Options returns the generator options the campaign fuzzes with.
func (s CampaignSpec) Options() proggen.Options {
	opt := proggen.DefaultOptions()
	if s.Len > 0 {
		opt.Len = s.Len
	}
	return opt
}

// Configs resolves the named matrix.
func (s CampaignSpec) Configs() ([]NamedConfig, error) {
	switch s.Matrix {
	case "", "quick":
		return Matrix(false), nil
	case "full":
		return Matrix(true), nil
	}
	return nil, fmt.Errorf("difftest: unknown matrix %q (quick|full)", s.Matrix)
}

// ConfigSummary aggregates a campaign's runs for one configuration.
type ConfigSummary struct {
	Config      string `json:"config"`
	Runs        int    `json:"runs"`
	Divergences int    `json:"divergences"`
	Episodes    uint64 `json:"runahead_episodes"`
	Committed   uint64 `json:"committed"`
	Cycles      uint64 `json:"cycles"`
}

// Report is the campaign outcome.  For a given spec it is deterministic
// across runs and across worker counts (an invariant the tests pin).
type Report struct {
	Spec        CampaignSpec    `json:"spec"`
	Configs     int             `json:"configs"`
	Runs        int             `json:"runs"` // seed×config simulations completed
	Clean       bool            `json:"clean"`
	Divergences []Divergence    `json:"divergences"`
	PerConfig   []ConfigSummary `json:"per_config"`
}

// Run executes a campaign: seeds shard across the sweep engine (honouring a
// sweep.Gate installed on ctx — the server's worker budget), results
// aggregate in seed order, and each divergent seed is minimized by the
// shrinker unless the spec opts out.  A cancelled campaign returns the
// partial report plus the context error.
func Run(ctx context.Context, spec CampaignSpec, opt sweep.Options) (Report, error) {
	spec = spec.WithDefaults()
	if spec.Leaks {
		return Report{}, fmt.Errorf("difftest: leak campaigns run via specrun/internal/leak")
	}
	if spec.Seeds < 1 {
		return Report{}, fmt.Errorf("difftest: seeds %d out of range", spec.Seeds)
	}
	if spec.Len < 1 {
		return Report{}, fmt.Errorf("difftest: len %d out of range", spec.Len)
	}
	cfgs, err := spec.Configs()
	if err != nil {
		return Report{}, err
	}
	popt := spec.Options()

	seeds := make([]int64, spec.Seeds)
	for i := range seeds {
		seeds[i] = spec.SeedBase + int64(i)
	}
	check := CheckSeed
	if spec.Interleave {
		check = CheckInterleave
	}
	results, runErr := sweep.Run(ctx, seeds, func(_ context.Context, seed int64) (SeedResult, error) {
		return check(seed, popt, cfgs), nil
	}, opt)

	rep := Report{Spec: spec, Configs: len(cfgs)}
	rep.PerConfig = make([]ConfigSummary, len(cfgs))
	perCfg := make(map[string]*ConfigSummary, len(cfgs))
	for i, nc := range cfgs {
		rep.PerConfig[i] = ConfigSummary{Config: nc.Name}
		perCfg[nc.Name] = &rep.PerConfig[i]
	}
	for _, r := range results {
		if r.PerConfig == nil && r.Divergences == nil {
			continue // cancelled before this seed ran
		}
		for _, cs := range r.PerConfig {
			s := perCfg[cs.Name]
			s.Runs++
			s.Episodes += cs.Episodes
			s.Committed += cs.Committed
			s.Cycles += cs.Cycles
			rep.Runs++
		}
		for _, d := range r.Divergences {
			if s := perCfg[d.Config]; s != nil {
				s.Divergences++
			}
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	rep.Clean = len(rep.Divergences) == 0

	if !spec.NoShrink && !spec.Interleave { // the shrinker minimizes against the ISS oracle only
		byName := make(map[string]NamedConfig, len(cfgs))
		for _, nc := range cfgs {
			byName[nc.Name] = nc
		}
		// One seed typically diverges on many configurations for the same
		// root cause (all four seeds of the first campaign did), so shrink
		// each seed once — against its first divergent configuration — and
		// attach that reproducer to every divergence of the seed.  The
		// shrinker's simulations hold a slot of the shared worker budget,
		// like every other simulation the server runs.
		gate := opt.Gate
		if gate == nil {
			gate = sweep.GateFrom(ctx)
		}
		shrunkBySeed := make(map[int64]*Reproducer)
		for i := range rep.Divergences {
			d := &rep.Divergences[i]
			nc, ok := byName[d.Config]
			if !ok || ctx.Err() != nil {
				continue
			}
			min, ok := shrunkBySeed[d.Seed]
			if !ok {
				if gate != nil {
					if gate.Acquire(ctx) != nil {
						continue // cancelled while waiting for a slot
					}
				}
				min = NewReproducer(d.Seed, Shrink(ctx, d.Seed, popt, nc), d.Config)
				if gate != nil {
					gate.Release()
				}
				shrunkBySeed[d.Seed] = min
			}
			d.Minimized = min
		}
	}
	return rep, runErr
}

// Merge folds a later campaign round into r (the CLI's --duration mode runs
// successive rounds over fresh seed ranges).  Per-config summaries sum
// field-wise; divergences concatenate in round order.
func (r Report) Merge(next Report) Report {
	r.Runs += next.Runs
	r.Spec.Seeds += next.Spec.Seeds
	r.Clean = r.Clean && next.Clean
	r.Divergences = append(r.Divergences, next.Divergences...)
	byName := make(map[string]int, len(r.PerConfig))
	for i, s := range r.PerConfig {
		byName[s.Config] = i
	}
	for _, s := range next.PerConfig {
		i, ok := byName[s.Config]
		if !ok {
			r.PerConfig = append(r.PerConfig, s)
			continue
		}
		r.PerConfig[i].Runs += s.Runs
		r.PerConfig[i].Divergences += s.Divergences
		r.PerConfig[i].Episodes += s.Episodes
		r.PerConfig[i].Committed += s.Committed
		r.PerConfig[i].Cycles += s.Cycles
	}
	return r
}
