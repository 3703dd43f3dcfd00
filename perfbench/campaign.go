package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
	"specrun/internal/iss"
	"specrun/internal/leak"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// campaign is the leak-hunting workload: one operation is a round of
// `specrun fuzz` on the quick matrix followed by a round of `specrun fuzz
// --leaks`, each over a fresh seed range, shrinking on.
type campaign struct {
	base  int64 // first seed of operation 0's ranges
	cfgs  []difftest.NamedConfig
	prog  *asm.Program // a generated program the set-up loads its machines with
	paper float64
}

// Seeds per operation.  Operation k checks difftest seeds
// base+k*fuzzSeeds… and leak seeds base+k*leakSeeds…, exactly the ranges
// successive `specrun fuzz --seed-base base` rounds of these sizes cover.
const (
	fuzzSeeds = 100
	leakSeeds = 50
)

// Simulation budgets of the oracles (internal/difftest, internal/leak).
const (
	issBudget = 5_000_000
	cpuBudget = 20_000_000
)

func (c *campaign) prepare(ctx context.Context, seed int64) error {
	c.base = seed*1_000_000 + 1
	c.cfgs = difftest.Matrix(false)
	c.prog = proggen.Generate(c.base, proggen.DefaultOptions())
	var err error
	c.paper, err = figureAnchorsErr(ctx)
	return err
}

func (c *campaign) warmup() time.Duration { return 0 }
func (c *campaign) clients() int          { return 1 }

// tailPct is p50: a 30-second run completes 20-30 rounds.
func (c *campaign) tailPct() float64 { return 50 }
func (c *campaign) close()           {}

func (c *campaign) paperErr(context.Context) (float64, error) { return c.paper, nil }

// specs returns operation k's two campaign specs.
func (c *campaign) specs(k int64) (fuzz, lk difftest.CampaignSpec) {
	fuzz = difftest.CampaignSpec{Seeds: fuzzSeeds, SeedBase: c.base + k*fuzzSeeds}
	lk = difftest.CampaignSpec{Seeds: leakSeeds, SeedBase: c.base + k*leakSeeds, Leaks: true}
	return fuzz, lk
}

// op runs one campaign round.  A simulator failure the oracles report
// (run_error) fails the operation; a divergence, a sequential-trace
// divergence or a golden-corpus row off its pinned outcome is a wrong
// output.
func (c *campaign) op(ctx context.Context, _ int, k int64) (verdict, time.Duration) {
	fz, lk := c.specs(k)
	opt := sweep.Options{Workers: workers}
	start := time.Now()
	dr, derr := difftest.Run(ctx, fz, opt)
	lr, lerr := leak.Run(ctx, lk, opt)
	d := time.Since(start)
	switch {
	case derr != nil:
		return failf("difftest seeds %d+: %v", fz.SeedBase, derr), d
	case lerr != nil:
		return failf("leak seeds %d+: %v", lk.SeedBase, lerr), d
	}
	return c.check(dr.Divergences, dr.Runs, lr), d
}

// check classifies one round's reports.
func (c *campaign) check(divs []difftest.Divergence, runs int, lr leak.Report) verdict {
	failed := ""
	for _, dv := range divs {
		if dv.Kind != difftest.KindRunError {
			return wrongf("difftest seed %d on %s: %s: %s", dv.Seed, dv.Config, dv.Kind, dv.Detail)
		}
		failed = fmt.Sprintf("difftest seed %d on %s: %s", dv.Seed, dv.Config, dv.Detail)
	}
	if len(divs) == 0 && runs != fuzzSeeds*len(c.cfgs) {
		return wrongf("difftest ran %d of %d seed×config runs", runs, fuzzSeeds*len(c.cfgs))
	}
	if err := checkCorpus(lr.Corpus); err != nil {
		return wrongf("leak corpus: %v", err)
	}
	for _, f := range lr.Findings {
		switch f.Kind {
		case leak.KindLeak:
		case leak.KindRunError:
			failed = fmt.Sprintf("leak seed %d on %s: %s", f.Seed, f.Config, f.Detail)
		default:
			return wrongf("leak seed %d on %s: %s: %s", f.Seed, f.Config, f.Kind, f.Detail)
		}
	}
	if failed != "" {
		return failf("%s", failed)
	}
	return passed
}

// checkCorpus holds the golden attack corpus to its pinned outcomes: every
// PoC runs without error, leaks on the vulnerable runahead machine and is
// silent under the §6 SL-cache defense.
func checkCorpus(rows []leak.CorpusRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("no corpus rows")
	}
	for _, r := range rows {
		switch {
		case r.Error != "":
			return fmt.Errorf("%s on %s: %s", r.Program, r.Config, r.Error)
		case r.Config == "original-rob256" && !r.Leak:
			return fmt.Errorf("%s silent on the vulnerable machine", r.Program)
		case r.Config == "original-rob256-secure" && r.Leak:
			return fmt.Errorf("%s leaks under the SL-cache defense", r.Program)
		}
	}
	return nil
}

// setup constructs both oracles' per-worker state: one machine per matrix
// configuration and a reference interpreter, per oracle, per worker.  The
// leak oracle's machines carry its observation taps.
func (c *campaign) setup(context.Context) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	var keep []any
	for range workers {
		for _, tapped := range []bool{false, true} {
			for _, nc := range c.cfgs {
				m := cpu.New(nc.Config, c.prog)
				if tapped {
					m.SetObserver(func(cpu.Observation) {})
					m.Hier().SetObserver(func(mem.CacheEvent) {})
				}
				keep = append(keep, m)
			}
			keep = append(keep, iss.New(c.prog))
		}
	}
	d := time.Since(start)
	runtime.KeepAlive(keep)
	return d, nil
}

// traced repeats campaign rounds built from the oracles' public per-seed
// and per-input functions — the same work difftest.Run and leak.Run do —
// then, outside the round's wall time, re-runs each difftest seed's
// generator, reference interpreter and pipeline machines one layer at a
// time.  Those repeated runs must reproduce the oracle's statistics exactly.
func (c *campaign) traced(ctx context.Context, tr *tracer, d time.Duration) (tracedRun, error) {
	var t tally
	pool := newMachinePool()
	tot := &simTotals{}
	var walls []float64
	var divergences, findings, runErrors int
	var alloc uint64
	deadline := time.Now().Add(d)
	ops := 0
	for k := int64(0); k == 0 || time.Now().Before(deadline); k++ {
		var r roundResult
		wall := tr.do("op", 0, k, func(id int64) { r = c.tracedRound(ctx, tr, k, id) })
		walls = append(walls, float64(wall.Nanoseconds())/1e6)
		ops++
		v := r.verdict
		if v.outcome == pass {
			v = c.check(r.divs, r.runs, r.leak)
		}
		if v.outcome == pass {
			a0 := allocatedBytes()
			v = c.layerRepeat(ctx, tr, k, r.seedStats, pool, tot)
			alloc += allocatedBytes() - a0
		}
		t.add(v, fmt.Sprintf("traced op %d", k))
		divergences += len(r.divs)
		for _, f := range r.leak.Findings {
			findings++
			if f.Kind == leak.KindRunError {
				runErrors++
			}
		}
	}
	spans := tr.snapshot()
	m := map[string]float64{}
	layerTimes(spans, ops, m, map[string]string{
		"leak.corpus_ms":      "leak.corpus",
		"leak.shrink_ms":      "leak.shrink",
		"core.new_machine_ms": "core.new_machine",
	})
	m["proggen.generate_us"] = perCall(spans, "proggen.generate") / 1e3
	m["iss.run_us"] = perCall(spans, "iss.run") / 1e3
	m["core.reset_us"] = perCall(spans, "core.reset") / 1e3
	m["difftest.check_ms"] = perCall(spans, "difftest.check") / 1e6
	m["leak.check_ms"] = perCall(spans, "leak.check") / 1e6
	m["core.machines_built"] = float64(count(spans, "core.new_machine")) / float64(ops)
	m["core.pool_hit_ratio"] = pool.hitRatio()
	m["core.alloc_mb"] = float64(alloc) / (1 << 20) / float64(ops)
	m["difftest.divergences"] = float64(divergences) / float64(ops)
	m["leak.findings"] = float64(findings) / float64(ops)
	m["leak.run_errors"] = float64(runErrors) / float64(ops)
	tot.into(m, ops)
	sweepShares(spans, m)
	return tracedRun{layers: m, tally: t, opWalls: walls}, nil
}

// roundResult is one traced campaign round, assembled as difftest.Run and
// leak.Run assemble their reports.
type roundResult struct {
	verdict   verdict
	divs      []difftest.Divergence
	runs      int
	seedStats []difftest.SeedResult
	leak      leak.Report
}

// tracedRound performs operation k's round from the oracles' public
// functions, with spans: per-seed difftest checks on the sweep engine, the
// serial golden-corpus pass, per-seed leak checks on the sweep engine, and
// the serial shrink of every leaky seed.
func (c *campaign) tracedRound(ctx context.Context, tr *tracer, k int64, opID int64) roundResult {
	fz, lk := c.specs(k)
	var r roundResult
	seedRange := func(spec difftest.CampaignSpec) []int64 {
		s := make([]int64, spec.Seeds)
		for i := range s {
			s[i] = spec.SeedBase + int64(i)
		}
		return s
	}
	popt := fz.WithDefaults().Options()
	var err error
	tr.do("sweep.run", opID, k, func(id int64) {
		r.seedStats, err = sweep.Run(ctx, seedRange(fz), func(_ context.Context, seed int64) (difftest.SeedResult, error) {
			var res difftest.SeedResult
			tr.do("sweep.job", id, k, func(jid int64) {
				tr.do("difftest.check", jid, k, func(int64) { res = difftest.CheckSeed(seed, popt, c.cfgs) })
			})
			return res, nil
		}, sweep.Options{Workers: workers})
	})
	if err != nil {
		r.verdict = failf("difftest seeds %d+: %v", fz.SeedBase, err)
		return r
	}
	for _, s := range r.seedStats {
		r.runs += len(s.PerConfig)
		r.divs = append(r.divs, s.Divergences...)
	}
	// Shrink each divergent seed once, against its first divergent matrix
	// configuration, as difftest.Run does.
	shrunk := map[int64]bool{}
	for _, dv := range r.divs {
		nc, found := configNamed(c.cfgs, dv.Config)
		if !found || shrunk[dv.Seed] {
			continue
		}
		shrunk[dv.Seed] = true
		tr.do("difftest.shrink", opID, k, func(int64) {
			difftest.NewReproducer(dv.Seed, difftest.Shrink(ctx, dv.Seed, popt, nc), dv.Config)
		})
	}

	lopt := leak.Options(lk.WithDefaults())
	tr.do("leak.corpus", opID, k, func(int64) { r.leak.Corpus, err = leakCorpus(c.cfgs) })
	if err != nil {
		r.verdict = failf("leak corpus: %v", err)
		return r
	}
	var lres []leak.SeedResult
	tr.do("sweep.run", opID, k, func(id int64) {
		lres, err = sweep.Run(ctx, seedRange(lk), func(_ context.Context, seed int64) (leak.SeedResult, error) {
			var res leak.SeedResult
			tr.do("sweep.job", id, k, func(jid int64) {
				tr.do("leak.check", jid, k, func(int64) { res = leak.CheckSeed(seed, lopt, c.cfgs) })
			})
			return res, nil
		}, sweep.Options{Workers: workers})
	})
	if err != nil {
		r.verdict = failf("leak seeds %d+: %v", lk.SeedBase, err)
		return r
	}
	clear(shrunk)
	for _, s := range lres {
		r.leak.Runs += len(s.Ran)
		r.leak.Findings = append(r.leak.Findings, s.Findings...)
		for _, f := range s.Findings {
			if f.Kind != leak.KindLeak || shrunk[f.Seed] {
				continue
			}
			shrunk[f.Seed] = true
			nc, _ := configNamed(c.cfgs, f.Config)
			cfg := []difftest.NamedConfig{nc}
			seed := f.Seed
			tr.do("leak.shrink", opID, k, func(int64) {
				reduced := difftest.ShrinkWith(ctx, lopt, func(o proggen.Options) bool {
					for _, g := range leak.CheckSeed(seed, o, cfg).Findings {
						if g.Kind == leak.KindLeak {
							return true
						}
					}
					return false
				})
				difftest.NewReproducer(seed, reduced, f.Config)
			})
		}
	}
	return r
}

// leakCorpus replays the golden attack corpus as leak.Run does: every PoC
// variant against every configuration on one dedicated runner, with the
// variant's microarchitectural preconditions applied.
func leakCorpus(cfgs []difftest.NamedConfig) ([]leak.CorpusRow, error) {
	r := leak.NewRunner()
	var rows []leak.CorpusRow
	for _, v := range leak.CorpusVariants {
		in, err := leak.AttackInput(v)
		if err != nil {
			return nil, err
		}
		if f := r.CheckSeqBaseline(in); f != nil {
			return nil, fmt.Errorf("corpus %s: %s: %s", v, f.Kind, f.Detail)
		}
		for _, nc := range cfgs {
			tuned := difftest.NamedConfig{Name: nc.Name, Config: attack.ConfigFor(v, nc.Config)}
			row := leak.CorpusRow{Program: in.Name, Config: nc.Name}
			f, ran := r.CheckConfig(in, tuned)
			switch {
			case !ran:
				row.Error = f.Detail
			case f != nil:
				row.Leak = true
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// configNamed looks up a matrix configuration by name.
func configNamed(cfgs []difftest.NamedConfig, name string) (difftest.NamedConfig, bool) {
	for _, nc := range cfgs {
		if nc.Name == name {
			return nc, true
		}
	}
	return difftest.NamedConfig{}, false
}

// layerRepeat re-runs every difftest seed of operation k one layer at a
// time — generator, reference interpreter, then each configuration's
// machine (recycled per configuration, as the oracle's worker caches do) —
// and checks each pipeline run against the statistics CheckSeed reported.
func (c *campaign) layerRepeat(ctx context.Context, tr *tracer, k int64, seeds []difftest.SeedResult, pool *machinePool, tot *simTotals) verdict {
	popt := proggen.DefaultOptions()
	var interps = make(chan *iss.Interp, workers)
	for range workers {
		interps <- nil
	}
	_, err := sweep.Run(ctx, seeds, func(_ context.Context, s difftest.SeedResult) (struct{}, error) {
		var prog *asm.Program
		tr.do("proggen.generate", 0, k, func(int64) { prog = proggen.Generate(s.Seed, popt) })
		it := <-interps
		var err error
		tr.do("iss.run", 0, k, func(int64) {
			if it == nil {
				it = iss.New(prog)
			} else {
				it.Reset(prog)
			}
			err = it.Run(issBudget)
		})
		interps <- it
		if err != nil {
			return struct{}{}, fmt.Errorf("seed %d: iss: %w", s.Seed, err)
		}
		for i, nc := range c.cfgs {
			st, err := runMachine(tr, k, 0, nc.Config, prog, cpuBudget, pool, tot)
			if err != nil {
				return struct{}{}, fmt.Errorf("seed %d on %s: %w", s.Seed, nc.Name, err)
			}
			want := s.PerConfig[i]
			if st.Cycles != want.Cycles || st.Committed != want.Committed || st.RunaheadEpisodes != want.Episodes {
				return struct{}{}, fmt.Errorf("seed %d on %s: repeated run differs from the oracle's statistics", s.Seed, nc.Name)
			}
		}
		return struct{}{}, nil
	}, sweep.Options{Workers: workers})
	if err != nil {
		return wrongf("layer repeat: %v", err)
	}
	return passed
}
