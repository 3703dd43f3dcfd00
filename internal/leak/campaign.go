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

// Run executes a leak campaign on the difftest campaign engine: the corpus
// phase (runCorpus: every PoC variant against every matrix configuration),
// then the seed phase (RunSeeds).  Both phases run on the sweep engine with
// opt's worker count and honour a sweep.Gate on ctx; opt.OnProgress counts
// seeds only.  A campaign cancelled during its corpus returns no report;
// one cancelled during its sweep or its shrink pass returns the partial
// report.  Either way the error is the context's.
func Run(ctx context.Context, spec difftest.CampaignSpec, opt sweep.Options) (Report, error) {
	_, cfgs, err := resolve(spec)
	if err != nil {
		return Report{}, err
	}
	corpus, err := runCorpus(ctx, cfgs, opt.Workers)
	if err != nil {
		return Report{}, err
	}
	rep, err := RunSeeds(ctx, spec, opt)
	rep.Corpus = corpus
	return rep, err
}

// RunSeeds is a leak campaign's seed phase alone: the generated-seed sweep
// (difftest.SweepSeeds), then the engine's shrink pass over the leaky seeds
// unless the spec opts out.  Its report has no corpus rows.  The corpus is
// round-independent, so the CLI's --duration rounds after the first run
// only this phase and Merge keeps the first round's rows.
func RunSeeds(ctx context.Context, spec difftest.CampaignSpec, opt sweep.Options) (Report, error) {
	spec, cfgs, err := resolve(spec)
	if err != nil {
		return Report{}, err
	}
	popt := Options(spec)
	rep := Report{Spec: spec, Configs: len(cfgs)}
	results, runErr := difftest.SweepSeeds(ctx, spec, opt, popt, cfgs, CheckSeed)

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
		var failures []difftest.Failure
		for i := range rep.Findings {
			if f := &rep.Findings[i]; f.Kind == KindLeak && f.Seed != 0 {
				failures = append(failures, difftest.Failure{Seed: f.Seed, Config: f.Config, Minimized: &f.Minimized})
			}
		}
		if err := difftest.ShrinkOncePerSeed(ctx, popt, cfgs, failures, leaks); runErr == nil {
			runErr = err
		}
	}
	return rep, runErr
}

// resolve applies the campaign rule set and requires a leak spec.
func resolve(spec difftest.CampaignSpec) (difftest.CampaignSpec, []difftest.NamedConfig, error) {
	spec, cfgs, err := spec.Resolve()
	if err == nil && !spec.Leaks {
		err = fmt.Errorf("leak: spec does not request a leak campaign")
	}
	return spec, cfgs, err
}

// leaks is the leak oracle's shrink predicate: seed, generated with o,
// still leaks under nc.
func leaks(seed int64, o proggen.Options, nc difftest.NamedConfig) bool {
	for _, f := range CheckSeed(seed, o, []difftest.NamedConfig{nc}).Findings {
		if f.Kind == KindLeak {
			return true
		}
	}
	return false
}

// Merge folds a later campaign round into r (the CLI's --duration mode runs
// successive rounds over fresh seed ranges).  The golden corpus is round-
// independent, so the first round's rows stand and a later round may come
// from RunSeeds alone.
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
