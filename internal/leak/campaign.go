package leak

import (
	"context"
	"fmt"

	"specrun/internal/difftest"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// DefaultSecretBytes is the secret-region size leak campaigns generate
// programs with (one cache line: enough for index- and line-granular
// transmission gadgets, small enough to keep the two valuations cheap).
const DefaultSecretBytes = 64

// ConfigSummary aggregates a leak campaign's runs for one configuration.
type ConfigSummary struct {
	Config string `json:"config"`
	Runs   int    `json:"runs"`
	Leaks  int    `json:"leaks"`
	Errors int    `json:"errors"`
}

// Report is the leak-campaign outcome.  Like the difftest report it is
// deterministic for a given spec, across runs and worker counts.  Leaks are
// findings, not failures: a leaky insecure configuration is the expected
// behaviour the paper documents, so Clean tracks only oracle errors
// (run_error, seq_divergence) and golden-corpus expectation violations stay
// visible in Corpus.
type Report struct {
	Spec      difftest.CampaignSpec `json:"spec"`
	Configs   int                   `json:"configs"`
	Runs      int                   `json:"runs"`
	Leaks     int                   `json:"leaks"`
	Errors    int                   `json:"errors"`
	Clean     bool                  `json:"clean"`
	Corpus    []CorpusRow           `json:"corpus,omitempty"`
	Findings  []Finding             `json:"findings,omitempty"`
	PerConfig []ConfigSummary       `json:"per_config"`
}

// Options returns the generator options a leak campaign fuzzes with: the
// difftest options plus a secret region (which also unlocks the generator's
// Spectre-shaped gadget).
func Options(spec difftest.CampaignSpec) proggen.Options {
	popt := spec.Options()
	popt.SecretBytes = DefaultSecretBytes
	return popt
}

// Run executes a leak campaign: the golden attack corpus first (every PoC
// variant against every matrix configuration), then the generated-seed
// sweep, sharded exactly like difftest.Run and honouring a sweep.Gate on
// ctx.  Leaky seeds are minimized with the difftest shrinker unless the
// spec opts out.
func Run(ctx context.Context, spec difftest.CampaignSpec, opt sweep.Options) (Report, error) {
	spec = spec.WithDefaults()
	if !spec.Leaks {
		return Report{}, fmt.Errorf("leak: spec does not request a leak campaign")
	}
	if spec.Interleave {
		return Report{}, fmt.Errorf("leak: --leaks and --interleave are mutually exclusive oracles")
	}
	if spec.Seeds < 1 {
		return Report{}, fmt.Errorf("leak: seeds %d out of range", spec.Seeds)
	}
	if spec.Len < 1 {
		return Report{}, fmt.Errorf("leak: len %d out of range", spec.Len)
	}
	cfgs, err := spec.Configs()
	if err != nil {
		return Report{}, err
	}
	popt := Options(spec)

	rep := Report{Spec: spec, Configs: len(cfgs)}
	rep.Corpus, err = runCorpus(cfgs)
	if err != nil {
		return Report{}, err
	}

	seeds := make([]int64, spec.Seeds)
	for i := range seeds {
		seeds[i] = spec.SeedBase + int64(i)
	}
	results, runErr := sweep.Run(ctx, seeds, func(_ context.Context, seed int64) (SeedResult, error) {
		return CheckSeed(seed, popt, cfgs), nil
	}, opt)

	rep.PerConfig = make([]ConfigSummary, len(cfgs))
	perCfg := make(map[string]*ConfigSummary, len(cfgs))
	for i, nc := range cfgs {
		rep.PerConfig[i] = ConfigSummary{Config: nc.Name}
		perCfg[nc.Name] = &rep.PerConfig[i]
	}
	for _, r := range results {
		if r.Ran == nil && r.Findings == nil {
			continue // cancelled before this seed ran
		}
		for _, name := range r.Ran {
			perCfg[name].Runs++
			rep.Runs++
		}
		for _, f := range r.Findings {
			s := perCfg[f.Config] // nil for the config-independent "iss" findings
			switch f.Kind {
			case KindLeak:
				rep.Leaks++
				if s != nil {
					s.Leaks++
				}
			default:
				rep.Errors++
				if s != nil {
					s.Errors++
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	rep.Clean = rep.Errors == 0

	if !spec.NoShrink {
		minimize(ctx, &rep, popt, cfgs, opt)
	}
	return rep, runErr
}

// minimize shrinks each leaky seed once — against its first leaking
// configuration — and attaches the reproducer to every leak finding of the
// seed, mirroring difftest.Run's shrink pass (including holding a slot of
// the shared worker budget per shrink).
func minimize(ctx context.Context, rep *Report, popt proggen.Options, cfgs []difftest.NamedConfig, opt sweep.Options) {
	byName := make(map[string]difftest.NamedConfig, len(cfgs))
	for _, nc := range cfgs {
		byName[nc.Name] = nc
	}
	gate := opt.Gate
	if gate == nil {
		gate = sweep.GateFrom(ctx)
	}
	shrunkBySeed := make(map[int64]*difftest.Reproducer)
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if f.Kind != KindLeak || f.Seed == 0 {
			continue
		}
		nc, ok := byName[f.Config]
		if !ok || ctx.Err() != nil {
			continue
		}
		min, ok := shrunkBySeed[f.Seed]
		if !ok {
			if gate != nil {
				if gate.Acquire(ctx) != nil {
					continue // cancelled while waiting for a slot
				}
			}
			seed, cfg := f.Seed, []difftest.NamedConfig{nc}
			reduced := difftest.ShrinkWith(ctx, popt, func(o proggen.Options) bool {
				for _, g := range CheckSeed(seed, o, cfg).Findings {
					if g.Kind == KindLeak {
						return true
					}
				}
				return false
			})
			if gate != nil {
				gate.Release()
			}
			min = difftest.NewReproducer(f.Seed, reduced, f.Config)
			shrunkBySeed[f.Seed] = min
		}
		f.Minimized = min
	}
}

// Merge folds a later campaign round into r (the CLI's --duration mode runs
// successive rounds over fresh seed ranges).  The golden corpus is round-
// independent, so the first round's rows stand.
func (r Report) Merge(next Report) Report {
	r.Runs += next.Runs
	r.Leaks += next.Leaks
	r.Errors += next.Errors
	r.Spec.Seeds += next.Spec.Seeds
	r.Clean = r.Clean && next.Clean
	r.Findings = append(r.Findings, next.Findings...)
	r.PerConfig = append([]ConfigSummary(nil), r.PerConfig...) // don't mutate the caller's round
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
		r.PerConfig[i].Leaks += s.Leaks
		r.PerConfig[i].Errors += s.Errors
	}
	return r
}
