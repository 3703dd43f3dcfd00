package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/runahead"
	"specrun/internal/server"
	"specrun/internal/sweep"
	"specrun/internal/workload"
)

// figures is the `specrun all` workload: one operation is the paper's
// figure set through server.Run, closed loop, one at a time.
type figures struct {
	cfg   core.Config
	leakP attack.Params // the leak driver's params: a seed-derived secret

	ref    [][]byte // encoded results of the first operation
	refRes []any    // its result values
	groups []simGroup
}

// figureDrivers is the figure set in paper order.
var figureDrivers = []string{"ipc", "fig9", "fig10", "fig11", "defense", "variants", "leak"}

// leakSecretLen is the length of `specrun leak`'s default secret, "SPECRUN".
const leakSecretLen = 7

// Simulation budgets of the drivers the traced run repeats (core's
// defaultBudget for Fig. 7 kernels, attack's runBudget for PoCs and window
// programs).  Runs halt long before either.
const (
	kernelBudget = 50_000_000
	pocBudget    = 10_000_000
)

func (f *figures) prepare(_ context.Context, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	secret := make([]byte, leakSecretLen)
	for i := range secret {
		secret[i] = byte(rng.Intn(256))
	}
	f.cfg = core.DefaultConfig()
	f.leakP = attack.DefaultParams()
	f.leakP.Secret = secret
	f.groups = figureGroups(f.cfg, f.leakP)
	return nil
}

func (f *figures) warmup() time.Duration { return 0 }
func (f *figures) clients() int          { return 1 }

// tailPct is p75: a 30-second run completes 50-80 figure sets.
func (f *figures) tailPct() float64 { return 75 }
func (f *figures) close()           {}

// runSet runs every figure driver and encodes each result.
func (f *figures) runSet(ctx context.Context) ([]any, [][]byte, error) {
	res := make([]any, len(figureDrivers))
	bodies := make([][]byte, len(figureDrivers))
	for i, d := range figureDrivers {
		p := attack.DefaultParams()
		if d == "leak" {
			p = f.leakP
		}
		r, err := server.Run(ctx, d, f.cfg, p, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", d, err)
		}
		b, err := server.Encode(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: encode: %w", d, err)
		}
		res[i], bodies[i] = r, b
	}
	return res, bodies, nil
}

// op runs one figure set.  The first operation's results must hold the
// paper anchors; every later operation's bytes must equal the first's.
func (f *figures) op(ctx context.Context, _ int, _ int64) (verdict, time.Duration) {
	start := time.Now()
	res, bodies, err := f.runSet(ctx)
	d := time.Since(start)
	if err != nil {
		return failf("figures: %v", err), d
	}
	if f.ref == nil {
		if err := checkAnchors(res, f.leakP.Secret); err != nil {
			return wrongf("figures: %v", err), d
		}
		f.ref, f.refRes = bodies, res
		return passed, d
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], f.ref[i]) {
			return wrongf("figures: %s result differs from the first operation's", figureDrivers[i]), d
		}
	}
	return passed, d
}

// checkAnchors holds the figure results to the repository's own tolerances.
func checkAnchors(res []any, secret []byte) error {
	leaks := func(r core.AttackResult, want byte) bool {
		b, ok := r.LeakedByte()
		return ok && b == want
	}
	silent := func(r core.AttackResult) bool {
		_, ok := r.LeakedByte()
		return !ok
	}
	ipc := res[0].(server.IPCResponse)
	fig9 := res[1].(core.AttackResult)
	fig10 := res[2].(server.Fig10Response)
	fig11 := res[3].(core.Fig11Result)
	def := res[4].(core.DefenseResult)
	lk := res[6].(server.LeakResponse)
	switch {
	case ipc.MeanSpeedup < 1.05 || ipc.MeanSpeedup > 1.20:
		return fmt.Errorf("Fig. 7 mean speedup %.4f outside 1.05..1.20", ipc.MeanSpeedup)
	case !leaks(fig9, 86):
		return fmt.Errorf("Fig. 9 did not leak byte 86")
	case fig10.N1.N != 255:
		return fmt.Errorf("Fig. 10 N1 = %d, want 255", fig10.N1.N)
	case !leaks(fig11.Runahead, 127) || !silent(fig11.NoRunahead):
		return fmt.Errorf("Fig. 11 must leak 127 with runahead and nothing without")
	case !leaks(def.Vulnerable, 127) || !silent(def.Secure) || !silent(def.SkipINV):
		return fmt.Errorf("§6 defenses must block the leak the vulnerable machine shows")
	case !bytes.Equal(lk.Bytes, secret):
		return fmt.Errorf("leak recovered %x, planted %x", lk.Bytes, secret)
	}
	return nil
}

func (f *figures) paperErr(context.Context) (float64, error) {
	if f.refRes == nil {
		return 0, fmt.Errorf("no figure set completed")
	}
	ipc := f.refRes[0].(server.IPCResponse)
	w := f.refRes[2].(server.Fig10Response)
	return paperErrPct(ipc.MeanSpeedup, w.N1.N, w.N2.N, w.N3.N), nil
}

// figureAnchorsErr computes paper_err_pct for workloads that do not run the
// figures themselves: one untimed Fig. 7 and Fig. 10 reproduction.
func figureAnchorsErr(ctx context.Context) (float64, error) {
	cfg, p := core.DefaultConfig(), attack.DefaultParams()
	ipc, err := server.Run(ctx, "ipc", cfg, p, workers)
	if err != nil {
		return 0, err
	}
	win, err := server.Run(ctx, "fig10", cfg, p, workers)
	if err != nil {
		return 0, err
	}
	w := win.(server.Fig10Response)
	return paperErrPct(ipc.(server.IPCResponse).MeanSpeedup, w.N1.N, w.N2.N, w.N3.N), nil
}

// setup builds the figure programs and the pooled machines the Fig. 7
// driver keeps, one per configuration per worker.
func (f *figures) setup(context.Context) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	var progs []*asm.Program
	for _, g := range f.groups {
		for _, j := range g.jobs {
			progs = append(progs, j.build())
		}
	}
	var machines []*core.Machine
	for range workers {
		for _, cfg := range ipcConfigs(f.cfg) {
			machines = append(machines, core.NewMachine(cfg, progs[0]))
		}
	}
	d := time.Since(start)
	runtime.KeepAlive(machines)
	return d, nil
}

// ipcConfigs returns the Fig. 7 driver's no-runahead and runahead machines.
func ipcConfigs(base core.Config) [2]core.Config {
	no, ra := base, base
	no.Runahead.Kind = runahead.KindNone
	if ra.Runahead.Kind == runahead.KindNone {
		ra.Runahead.Kind = runahead.KindOriginal
	}
	return [2]core.Config{no, ra}
}

// simJob is one simulation a figure driver performs, spelled out through
// the layers' public functions: a program builder, a machine, a run.
type simJob struct {
	layer  string // span name of the builder: workload.build or attack.build
	build  func() *asm.Program
	cfg    core.Config
	pooled bool // Fig. 7 recycles pooled machines; PoCs build fresh ones
	budget uint64
}

// simGroup is one driver's simulations, run on the sweep engine as the
// driver runs them, with a check that the repeated simulations reproduce
// the driver's statistics exactly.
type simGroup struct {
	driver string
	jobs   []simJob
	check  func(ref any, got []cpu.Stats) error
}

// figureGroups spells out every simulation of the figure set, in the
// drivers' order and with their configurations (see internal/core and
// internal/attack).
func figureGroups(cfg core.Config, leakP attack.Params) []simGroup {
	poc := func(c core.Config, p attack.Params, tuned bool) simJob {
		if tuned {
			c = attack.ConfigFor(p.Variant, c)
		}
		return simJob{layer: "attack.build", cfg: c, budget: pocBudget, build: func() *asm.Program {
			prog, _, err := attack.Build(p)
			if err != nil {
				panic(err) // the drivers built the same params successfully
			}
			return prog
		}}
	}
	stats := func(rs ...core.AttackResult) []cpu.Stats {
		out := make([]cpu.Stats, len(rs))
		for i, r := range rs {
			out[i] = r.Stats
		}
		return out
	}
	sameStats := func(want []cpu.Stats) func([]cpu.Stats) error {
		return func(got []cpu.Stats) error {
			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					return fmt.Errorf("simulation %d: stats differ from the driver's", i)
				}
			}
			return nil
		}
	}

	var groups []simGroup

	// Fig. 7: every kernel on the no-runahead then the runahead machine.
	confs := ipcConfigs(cfg)
	var ipcJobs []simJob
	for _, k := range workload.Kernels() {
		for _, c := range confs {
			ipcJobs = append(ipcJobs, simJob{layer: "workload.build", build: k.Build, cfg: c, pooled: true, budget: kernelBudget})
		}
	}
	groups = append(groups, simGroup{"ipc", ipcJobs, func(ref any, got []cpu.Stats) error {
		for i, row := range ref.(server.IPCResponse).Rows {
			no, ra := got[2*i], got[2*i+1]
			if no.Cycles != row.Cycles[0] || ra.Cycles != row.Cycles[1] || ra.Committed != row.Insts || ra.RunaheadEpisodes != row.Episodes {
				return fmt.Errorf("kernel %s: stats differ from the driver's", row.Name)
			}
		}
		return nil
	}})

	// Fig. 9: the default PoC.
	groups = append(groups, simGroup{"fig9", []simJob{poc(cfg, attack.DefaultParams(), true)}, func(ref any, got []cpu.Stats) error {
		return sameStats(stats(ref.(core.AttackResult)))(got)
	}})

	// Fig. 10: the three window scenarios.
	var winJobs []simJob
	for _, s := range []attack.WindowScenario{attack.Window1NormalFlushOnce, attack.Window2RunaheadFlushOnce, attack.Window3RunaheadFlushRepeat} {
		c := cfg
		if s == attack.Window1NormalFlushOnce {
			c.Runahead.Kind = runahead.KindNone
		} else if c.Runahead.Kind == runahead.KindNone {
			c.Runahead.Kind = runahead.KindOriginal
		}
		winJobs = append(winJobs, simJob{layer: "attack.build", cfg: c, budget: pocBudget,
			build: func() *asm.Program { return attack.BuildWindowProgram(s) }})
	}
	groups = append(groups, simGroup{"fig10", winJobs, func(ref any, got []cpu.Stats) error {
		w := ref.(server.Fig10Response)
		for i, r := range []attack.WindowResult{w.N1, w.N2, w.N3} {
			n := got[i].MaxEpisodeReach()
			if i == 0 {
				n = got[i].MaxStallWindow
			}
			if n != r.N || got[i].RunaheadEpisodes != r.Episodes || !reflect.DeepEqual(got[i].EpisodeReaches, r.Reaches) {
				return fmt.Errorf("window %d: stats differ from the driver's", i+1)
			}
		}
		return nil
	}})

	// Fig. 11 and §6: the padded gadget with secret 127.
	padded := attack.DefaultParams()
	padded.Secret = []byte{127}
	padded.NopPad = 300
	noRA, secure, skip := cfg, cfg, cfg
	noRA.Runahead.Kind = runahead.KindNone
	secure.Secure.Enabled = true
	skip.Runahead.SkipINVBranch = true
	groups = append(groups, simGroup{"fig11", []simJob{poc(cfg, padded, true), poc(noRA, padded, true)}, func(ref any, got []cpu.Stats) error {
		r := ref.(core.Fig11Result)
		return sameStats(stats(r.Runahead, r.NoRunahead))(got)
	}})
	groups = append(groups, simGroup{"defense", []simJob{poc(cfg, padded, true), poc(secure, padded, true), poc(skip, padded, true)}, func(ref any, got []cpu.Stats) error {
		r := ref.(core.DefenseResult)
		return sameStats(stats(r.Vulnerable, r.Secure, r.SkipINV))(got)
	}})

	// §4.3/§4.4: four Spectre variants, then two runahead variants.
	var varJobs []simJob
	for _, v := range []attack.Variant{attack.VariantPHT, attack.VariantBTB, attack.VariantRSBOverwrite, attack.VariantRSBFlush} {
		p := attack.DefaultParams()
		p.Variant = v
		if v == attack.VariantPHT || v == attack.VariantBTB {
			p.NopPad = 300
		}
		varJobs = append(varJobs, poc(cfg, p, true))
	}
	for _, k := range []runahead.Kind{runahead.KindPrecise, runahead.KindVector} {
		p := attack.DefaultParams()
		p.NopPad = 300
		c := cfg
		c.Runahead.Kind = k
		varJobs = append(varJobs, poc(c, p, true))
	}
	groups = append(groups, simGroup{"variants", varJobs, func(ref any, got []cpu.Stats) error {
		var rs []core.AttackResult
		for _, row := range ref.(server.VariantsResponse).Rows {
			rs = append(rs, row.Result)
		}
		return sameStats(stats(rs...))(got)
	}})

	// Multi-byte extraction: one PoC per secret byte, untuned config.
	var leakJobs []simJob
	for i := range leakP.Secret {
		q := leakP
		q.SecretIdx = i
		leakJobs = append(leakJobs, poc(cfg, q, false))
	}
	groups = append(groups, simGroup{"leak", leakJobs, func(ref any, got []cpu.Stats) error {
		return sameStats(stats(ref.(server.LeakResponse).Results...))(got)
	}})
	return groups
}

// traced runs the figure set once through the drivers for reference
// results, then repeats its simulations through the layers' public
// functions until d is spent.  Each repetition must reproduce the drivers'
// statistics exactly.
func (f *figures) traced(ctx context.Context, tr *tracer, d time.Duration) (tracedRun, error) {
	var t tally
	v, _ := f.op(ctx, 0, 0)
	t.add(v, "reference figure set")
	if f.refRes == nil {
		return tracedRun{layers: map[string]float64{}, tally: t}, nil
	}
	pool := newMachinePool()
	tot := &simTotals{}
	var walls []float64
	var alloc uint64
	deadline := time.Now().Add(d)
	ops := 0
	for k := int64(1); k == 1 || time.Now().Before(deadline); k++ {
		a0 := allocatedBytes()
		var v verdict
		wall := tr.do("op", 0, k, func(id int64) { v = f.repeat(ctx, tr, k, id, pool, tot) })
		alloc += allocatedBytes() - a0
		t.add(v, fmt.Sprintf("traced op %d", k))
		walls = append(walls, float64(wall.Nanoseconds())/1e6)
		ops++
	}
	spans := tr.snapshot()
	m := map[string]float64{}
	layerTimes(spans, ops, m, map[string]string{
		"workload.build_ms":   "workload.build",
		"attack.build_ms":     "attack.build",
		"core.new_machine_ms": "core.new_machine",
	})
	m["core.machines_built"] = float64(count(spans, "core.new_machine")) / float64(ops)
	m["core.alloc_mb"] = float64(alloc) / (1 << 20) / float64(ops)
	m["core.reset_us"] = perCall(spans, "core.reset") / 1e3
	m["core.pool_hit_ratio"] = pool.hitRatio()
	tot.into(m, ops)
	sweepShares(spans, m)
	return tracedRun{layers: m, tally: t, opWalls: walls}, nil
}

// repeat performs one figure set's simulations driver by driver, each
// driver's jobs on the sweep engine, and checks them against the drivers'
// reference statistics.
func (f *figures) repeat(ctx context.Context, tr *tracer, op, parent int64, pool *machinePool, tot *simTotals) verdict {
	for gi, g := range f.groups {
		var stats []cpu.Stats
		var err error
		tr.do("sweep.run", parent, op, func(id int64) {
			stats, err = sweep.Run(ctx, g.jobs, func(_ context.Context, j simJob) (cpu.Stats, error) {
				var st cpu.Stats
				var err error
				tr.do("sweep.job", id, op, func(jid int64) {
					var prog *asm.Program
					tr.do(j.layer, jid, op, func(int64) { prog = j.build() })
					p := pool
					if !j.pooled {
						p = nil
					}
					st, err = runMachine(tr, op, jid, j.cfg, prog, j.budget, p, tot)
				})
				return st, err
			}, sweep.Options{Workers: workers})
		})
		if err != nil {
			return failf("traced %s: %v", g.driver, err)
		}
		if err := g.check(f.refRes[gi], stats); err != nil {
			return wrongf("traced %s: %v", g.driver, err)
		}
	}
	return passed
}
