// Package difftest is the campaign-scale differential-testing engine: it
// runs proggen programs in lockstep on the in-order reference interpreter
// (specrun/internal/iss) and the out-of-order pipeline (specrun/internal/cpu)
// across the whole runahead × secure × window configuration matrix, and
// checks the golden-model contract the SPECRUN argument rests on —
// speculation and runahead leave microarchitectural residue but must be
// *architecturally* invisible.
//
// The oracle is layered:
//
//  1. Commit stream: the pipeline's committed instruction stream (via
//     cpu.SetCommitHook) must equal the interpreter's executed stream
//     instruction for instruction — PC, opcode, destination and committed
//     value.  Because every configuration is compared against the same
//     reference stream, this also pins the cross-configuration invariant
//     (a runahead-off machine and a SPECRUN-style machine commit the same
//     stream commit-for-commit).
//  2. Final architectural state: integer, FP and vector register files and
//     the program's scratch buffer and stack memory.
//  3. Bookkeeping conservation: cache fills never exceed misses (each fill
//     is caused by a miss; SL-cache promotions exempt the L1D under the §6
//     defense), evictions never exceed fills, and write-backs never exceed
//     dirty-capable evictions.
//
// Campaigns shard seeds across the parallel sweep engine; failures are
// minimized by the shrinker into a reproducer (seed + generator options +
// config) small enough to check in as a regression test.
package difftest

import (
	"fmt"
	"strings"
	"sync/atomic"

	"specrun/internal/asm"
	"specrun/internal/cpu"
	"specrun/internal/isa"
	"specrun/internal/iss"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// Execution budgets, matching the hand-written differential tests.
const (
	issBudget = 5_000_000  // reference-interpreter step budget
	cpuBudget = 20_000_000 // OoO-core cycle budget
)

// Divergence kinds.
const (
	KindRunError     = "run_error"     // a simulator failed to complete the program
	KindCommitStream = "commit_stream" // committed stream != reference execution
	KindFinalState   = "final_state"   // register files differ after HALT
	KindFinalMem     = "final_mem"     // scratch buffer / stack memory differs
	KindCacheStats   = "cache_stats"   // bookkeeping conservation violated
)

// Divergence is one oracle violation found for (seed, config).
type Divergence struct {
	Seed   int64  `json:"seed"`
	Config string `json:"config"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Minimized, when the shrinker ran, is a reduced reproducer for this
	// seed; Reproducer.Config names the configuration the reduction was
	// validated against (the seed's first divergent one — shrinking runs
	// once per seed, not once per configuration).
	Minimized *Reproducer `json:"minimized,omitempty"`
}

// Reproducer pins a minimized failing input.  Sprog, when present, is the
// canonical binary encoding (specrun/internal/prog) of the reduced program —
// a shippable .sprog artifact that re-runs without the generator or seed
// (JSON carries it base64-encoded).
type Reproducer struct {
	Seed    int64           `json:"seed"`
	Options proggen.Options `json:"options"`
	Config  string          `json:"config"`
	Sprog   []byte          `json:"sprog,omitempty"`
}

// NewReproducer builds a reproducer and attaches its .sprog artifact.  The
// encoding is best effort: a failure leaves Sprog nil rather than losing
// the seed/options reproducer the campaign already paid for.
func NewReproducer(seed int64, opts proggen.Options, config string) *Reproducer {
	r := &Reproducer{Seed: seed, Options: opts, Config: config}
	if bin, _, err := proggen.Artifact(seed, opts); err == nil {
		r.Sprog = bin
	}
	return r
}

// ConfigRunStats summarises one pipeline run for campaign aggregation.
type ConfigRunStats struct {
	Name      string
	Episodes  uint64
	Committed uint64
	Cycles    uint64
}

// SeedResult is the outcome of checking one seed against a config set.
type SeedResult struct {
	Seed        int64
	Divergences []Divergence
	PerConfig   []ConfigRunStats // aligned with the config set; absent entries errored
}

// record is one executed/committed instruction in canonical form.
type record struct {
	pc    uint64
	op    string
	dest  string
	v, v2 uint64
}

func (r record) String() string {
	if r.dest == "" {
		return fmt.Sprintf("{pc=%#x %s}", r.pc, r.op)
	}
	return fmt.Sprintf("{pc=%#x %s %s=%#x:%#x}", r.pc, r.op, r.dest, r.v, r.v2)
}

// destString renders a destination register for record comparison: the empty
// string for NoReg (isa.Reg.String would print "-"), so dest-less
// instructions format without a bogus register clause.
func destString(d isa.Reg) string {
	if d == isa.NoReg {
		return ""
	}
	return d.String()
}

// runnerCache is the per-worker simulator state a differential campaign
// reuses across seeds: one reference interpreter, the worker's machines
// and the record buffers.  Rebuilding these per (seed, config) dominated
// campaign allocation — a full-matrix run is seeds × configs machines,
// each carrying megabytes of cache arrays.  CheckSeed draws a cache from a
// pool bounded by the worker count, so a campaign builds machines once per
// worker per configuration.
type runnerCache struct {
	ref  *iss.Interp
	cpus MachineCache

	refRecs  []record
	pipeRecs []record
}

// MachineCache is one worker's reusable pipeline machines, one per
// configuration name; the differential and the leak oracle's per-worker
// runners each hold one.  A cached machine is reused only while its name
// still maps to the identical configuration (callers can hand-build
// NamedConfigs that share a name, and a collision must rebuild rather than
// silently simulate the wrong machine).  The cache holds at most
// RunnerCacheCap machines and drops the least recently used on overflow.
// Machines come back with whatever taps their last run left installed, so
// an oracle installs its own around each run and removes them after.
type MachineCache struct {
	entries map[string]*cachedMachine
	tick    uint64 // lastUse clock for the LRU bound
}

type cachedMachine struct {
	cfg     cpu.Config
	c       *cpu.CPU
	lastUse uint64
}

// RunnerCacheCap bounds the machines one MachineCache holds: the full
// matrix needs 19, and a long-lived server fuzzing hand-built config sets
// must not accumulate one ~3 MB machine per configuration forever.
// RunnerEvictions counts the machines the bound drops, in both oracles'
// caches, for GET /v1/stats.
const RunnerCacheCap = 32

var runnerEvictions atomic.Uint64

// RunnerEvictions reports how many machines the RunnerCacheCap bound has
// dropped from the differential and leak oracles' per-worker caches since
// process start.
func RunnerEvictions() uint64 { return runnerEvictions.Load() }

// Machine returns the cache's machine for nc loaded with prog: the cached
// one after a Reset, or a new one.  A reused machine is byte-identical to
// a fresh one (pinned by the cpu package's reset tests and the oracles'
// worker-invariance tests).
func (mc *MachineCache) Machine(nc NamedConfig, prog *asm.Program) *cpu.CPU {
	if mc.entries == nil {
		mc.entries = make(map[string]*cachedMachine, RunnerCacheCap)
	}
	e := mc.entries[nc.Name]
	switch {
	case e != nil && e.cfg == nc.Config:
		e.c.Reset(prog)
	case e != nil:
		e.cfg, e.c = nc.Config, cpu.New(nc.Config, prog)
	default:
		if len(mc.entries) >= RunnerCacheCap {
			var victim string
			oldest := ^uint64(0)
			for name, ce := range mc.entries {
				if ce.lastUse < oldest {
					victim, oldest = name, ce.lastUse
				}
			}
			delete(mc.entries, victim)
			runnerEvictions.Add(1)
		}
		e = &cachedMachine{cfg: nc.Config, c: cpu.New(nc.Config, prog)}
		mc.entries[nc.Name] = e
	}
	mc.tick++
	e.lastUse = mc.tick
	return e.c
}

var runnerCaches = sweep.NewLocal(func() *runnerCache { return &runnerCache{} })

// refStream executes prog on the reference interpreter, capturing one record
// per instruction (the destination is read back after the step, so hardwired
// zero-register semantics match the pipeline's committed state).
func (rc *runnerCache) refStream(prog *asm.Program) ([]record, *iss.Interp, error) {
	if rc.ref == nil {
		rc.ref = iss.New(prog)
	} else {
		rc.ref.Reset(prog)
	}
	ref := rc.ref
	if rc.refRecs == nil {
		rc.refRecs = make([]record, 0, 4096)
	}
	recs := rc.refRecs[:0]
	defer func() { rc.refRecs = recs[:0] }()
	for ref.Steps < issBudget {
		pc := ref.PC
		in, ok := prog.InstAt(pc)
		if !ok {
			return recs, ref, fmt.Errorf("difftest: iss pc %#x outside program text", pc)
		}
		cont, err := ref.Step()
		if err != nil {
			return recs, ref, err
		}
		d := in.Dest()
		v, v2 := ref.RegValue(d)
		recs = append(recs, record{pc: pc, op: in.Op.Name(), dest: destString(d), v: v, v2: v2})
		if !cont {
			return recs, ref, nil
		}
	}
	return recs, ref, iss.ErrMaxSteps
}

// pipeStream runs prog on the worker's machine for nc, capturing the
// committed instruction stream through a commit hook installed for the
// run.
//
// The returned slice aliases the cache's reusable buffer and is valid only
// until the next pipeStream call on the same cache (same contract as
// refStream's result): CheckSeed consumes each stream before running the
// next configuration; any caller that needs two streams at once must clone
// the first.
func (rc *runnerCache) pipeStream(nc NamedConfig, prog *asm.Program) ([]record, *cpu.CPU, error) {
	c := rc.cpus.Machine(nc, prog)
	if rc.pipeRecs == nil {
		rc.pipeRecs = make([]record, 0, 4096)
	}
	recs := rc.pipeRecs[:0]
	c.SetCommitHook(func(r cpu.CommitRecord) {
		recs = append(recs, record{pc: r.PC, op: r.Op.Name(), dest: destString(r.Dest), v: r.Val, v2: r.Val2})
	})
	err := c.Run(cpuBudget)
	c.SetCommitHook(nil)
	rc.pipeRecs = recs[:0]
	return recs, c, err
}

// CheckSeed generates the program for seed and compares the pipeline against
// the reference under every configuration.  It never fails the process: all
// violations come back as Divergences.  Simulators are drawn from a pool of
// per-worker caches and reused across calls (one machine per configuration
// per concurrent caller, not one per seed).
func CheckSeed(seed int64, opt proggen.Options, cfgs []NamedConfig) SeedResult {
	rc := runnerCaches.Get()
	defer runnerCaches.Put(rc)
	prog := proggen.Generate(seed, opt)
	res := SeedResult{Seed: seed}
	issRecs, ref, err := rc.refStream(prog)
	if err != nil {
		res.Divergences = append(res.Divergences, Divergence{
			Seed: seed, Config: "iss", Kind: KindRunError, Detail: err.Error(),
		})
		return res
	}
	for _, nc := range cfgs {
		recs, c, err := rc.pipeStream(nc, prog)
		diverge := func(kind, detail string) {
			res.Divergences = append(res.Divergences, Divergence{
				Seed: seed, Config: nc.Name, Kind: kind, Detail: detail,
			})
		}
		if err != nil {
			diverge(KindRunError, err.Error())
			continue
		}
		st := c.Stats()
		res.PerConfig = append(res.PerConfig, ConfigRunStats{
			Name: nc.Name, Episodes: st.RunaheadEpisodes, Committed: st.Committed, Cycles: st.Cycles,
		})
		if d := diffStreams(issRecs, recs); d != "" {
			diverge(KindCommitStream, d)
		}
		if d := diffArch(ref, c); d != "" {
			diverge(KindFinalState, d)
		}
		if d := diffMemory(prog, opt, ref, c); d != "" {
			diverge(KindFinalMem, d)
		}
		if d := cacheInvariants(nc.Config, c); d != "" {
			diverge(KindCacheStats, d)
		}
	}
	return res
}

// diffStreams compares the committed stream against the reference execution
// and describes the first mismatch ("" if identical).
func diffStreams(ref, got []record) string {
	n := min(len(ref), len(got))
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			return fmt.Sprintf("commit %d: pipeline %s, reference %s", i, got[i], ref[i])
		}
	}
	if len(ref) != len(got) {
		return fmt.Sprintf("pipeline committed %d instructions, reference executed %d (first %d identical)",
			len(got), len(ref), n)
	}
	return ""
}

// diffArch compares the final register files ("" if identical; reports at
// most four registers).
func diffArch(ref *iss.Interp, c *cpu.CPU) string {
	var diffs []string
	add := func(s string) {
		if len(diffs) < 4 {
			diffs = append(diffs, s)
		}
	}
	for i := range ref.IntReg {
		if got := c.IntReg(i); got != ref.IntReg[i] {
			add(fmt.Sprintf("r%d=%#x want %#x", i, got, ref.IntReg[i]))
		}
	}
	for i := range ref.FPReg {
		if got := c.FPReg(i); got != ref.FPReg[i] {
			add(fmt.Sprintf("f%d=%#x want %#x", i, got, ref.FPReg[i]))
		}
	}
	for i := range ref.VecReg {
		if got := c.VecReg(i); got != ref.VecReg[i] {
			add(fmt.Sprintf("v%d=%#x:%#x want %#x:%#x", i, got[0], got[1], ref.VecReg[i][0], ref.VecReg[i][1]))
		}
	}
	return strings.Join(diffs, "; ")
}

// diffMemory compares the program's scratch buffer and stack word-by-word.
func diffMemory(prog *asm.Program, opt proggen.Options, ref *iss.Interp, c *cpu.CPU) string {
	opt = opt.WithDefaults() // the geometry Generate actually used
	for _, region := range []struct {
		sym  string
		size int
	}{{"buf", opt.BufBytes}, {"stack", opt.StackBytes}} {
		base, ok := prog.Sym(region.sym)
		if !ok {
			continue
		}
		for off := 0; off < region.size; off += 8 {
			a := base + uint64(off)
			if got, want := c.Mem().ReadU64(a), ref.Mem.ReadU64(a); got != want {
				return fmt.Sprintf("%s[%#x] (addr %#x) = %#x, want %#x", region.sym, off, a, got, want)
			}
		}
	}
	return ""
}

// cacheInvariants checks bookkeeping conservation on the memory hierarchy:
// every fill is caused by a miss (the §6 SL cache promotes lines into the
// L1D without a demand miss, so that one pairing is exempt under secure
// mode), every eviction accompanies a fill, and every write-back is a dirty
// eviction.
func cacheInvariants(cfg cpu.Config, c *cpu.CPU) string {
	h := c.Hier()
	l1i, l1d, l2, l3 := h.Caches()
	var evictions uint64
	var diffs []string
	check := func(name string, st mem.CacheStats, fillsBounded bool) {
		if fillsBounded && st.Fills > st.Misses {
			diffs = append(diffs, fmt.Sprintf("%s: fills %d > misses %d", name, st.Fills, st.Misses))
		}
		if st.Evictions > st.Fills {
			diffs = append(diffs, fmt.Sprintf("%s: evictions %d > fills %d", name, st.Evictions, st.Fills))
		}
		evictions += st.Evictions
	}
	check("L1I", l1i.Stats, true)
	check("L1D", l1d.Stats, !cfg.Secure.Enabled)
	check("L2", l2.Stats, true)
	check("L3", l3.Stats, true)
	if h.Stats.Writebacks > evictions {
		diffs = append(diffs, fmt.Sprintf("hierarchy: writebacks %d > evictions %d", h.Stats.Writebacks, evictions))
	}
	return strings.Join(diffs, "; ")
}
