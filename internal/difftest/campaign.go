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
	// leak.Run drives that oracle on this package's campaign engine;
	// difftest.Run rejects a Leaks spec.  The field lives here so the one
	// wire document — and its content-addressed cache key — covers both
	// oracles (omitempty keeps every pre-existing spec hash unchanged).
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

// Resolve is the one rule set of a campaign spec, applied by both engines,
// `specrun fuzz` and the server alike: it fills the defaults, requires at
// least one seed and a body length of at least one, resolves the named
// matrix, and rejects a spec that asks for both the leak and the
// interleave oracle.
func (s CampaignSpec) Resolve() (CampaignSpec, []NamedConfig, error) {
	s = s.WithDefaults()
	switch {
	case s.Seeds < 1:
		return s, nil, fmt.Errorf("campaign: seeds %d out of range (at least 1)", s.Seeds)
	case s.Len < 1:
		return s, nil, fmt.Errorf("campaign: len %d out of range (at least 1)", s.Len)
	case s.Matrix != "quick" && s.Matrix != "full":
		return s, nil, fmt.Errorf("campaign: unknown matrix %q (quick|full)", s.Matrix)
	case s.Leaks && s.Interleave:
		return s, nil, fmt.Errorf("campaign: leaks and interleave are mutually exclusive oracles")
	}
	return s, Matrix(s.Matrix == "full"), nil
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

// Run executes a differential campaign on the campaign engine: seeds shard
// across the sweep engine (SweepSeeds, honouring a sweep.Gate installed on
// ctx — the server's worker budget), results aggregate in seed order, and
// each divergent seed is minimized (ShrinkOncePerSeed) unless the spec opts
// out.  A campaign cancelled during its sweep or its shrink pass returns
// the partial report plus the context error, so no caller mistakes it for
// a finished one.
func Run(ctx context.Context, spec CampaignSpec, opt sweep.Options) (Report, error) {
	spec, cfgs, err := spec.Resolve()
	if err != nil {
		return Report{}, err
	}
	if spec.Leaks {
		return Report{}, fmt.Errorf("difftest: leak campaigns run via specrun/internal/leak")
	}
	popt := spec.Options()
	check := CheckSeed
	if spec.Interleave {
		check = CheckInterleave
	}
	results, runErr := SweepSeeds(ctx, spec, opt, popt, cfgs, check)

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
		failures := make([]Failure, len(rep.Divergences))
		for i := range rep.Divergences {
			d := &rep.Divergences[i]
			failures[i] = Failure{Seed: d.Seed, Config: d.Config, Minimized: &d.Minimized}
		}
		if err := ShrinkOncePerSeed(ctx, popt, cfgs, failures, diverges); runErr == nil {
			runErr = err
		}
	}
	return rep, runErr
}

// SweepSeeds is the seed sweep of every campaign engine: an oracle's
// per-seed check runs once per seed of the resolved spec's range, with the
// campaign's generator options and configurations, sharded across the
// sweep engine (honouring a sweep.Gate on ctx), and the results come back
// in seed order.  A seed a cancelled sweep never reached leaves a zero
// result.
func SweepSeeds[R any](ctx context.Context, spec CampaignSpec, opt sweep.Options, popt proggen.Options, cfgs []NamedConfig,
	check func(seed int64, opt proggen.Options, cfgs []NamedConfig) R) ([]R, error) {
	seeds := make([]int64, spec.Seeds)
	for i := range seeds {
		seeds[i] = spec.SeedBase + int64(i)
	}
	return sweep.Run(ctx, seeds, func(_ context.Context, seed int64) (R, error) {
		return check(seed, popt, cfgs), nil
	}, opt)
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
