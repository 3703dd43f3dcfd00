package cpu

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/isa"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/runahead"
)

// streamLoop builds an endless two-stream load loop over a footprint-byte
// region (power of two), with enough dependent work that the machine cycles
// through misses, runahead episodes, mispredictions and squashes — the full
// steady-state behaviour the zero-allocation property must hold under.
func streamLoop(t *testing.T, footprint uint64) *asm.Program {
	t.Helper()
	if footprint&(footprint-1) != 0 {
		t.Fatalf("footprint %d not a power of two", footprint)
	}
	b := asm.NewBuilder(0x1000, 0x100000)
	base := b.Alloc("buf", footprint, 64)
	r1, r2, off, tmp, mask := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	b.MoviAddr(r1, base)
	b.Movi(off, 0)
	b.Movi(mask, int64(footprint-1))
	b.Label("loop")
	b.Ldx(tmp, r1, off, 1, 0)
	b.Ldx(r2, r1, off, 1, 64)
	b.Add(tmp, tmp, r2)
	b.St(r1, 0, tmp)
	b.Addi(off, off, 128)
	b.And(off, off, mask)
	// A data-dependent branch so the predictor sometimes misses and the
	// squash/recovery path stays exercised.
	b.Andi(tmp, tmp, 3)
	b.Beq(tmp, isa.R(0), "loop")
	b.Jmp("loop")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// tickLoopConfig shrinks the caches so the stream loop misses to memory
// continuously (runahead episodes every few hundred cycles) without needing
// a multi-megabyte footprint.
func tickLoopConfig() Config {
	cfg := DefaultConfig()
	cfg.Mem.L2 = mem.CacheConfig{Name: "L2", Size: 16 << 10, Assoc: 4, Latency: 8}
	cfg.Mem.L3 = mem.CacheConfig{Name: "L3", Size: 64 << 10, Assoc: 8, Latency: 32}
	return cfg
}

// TestTickLoopZeroAllocSteadyState pins the tentpole property: once warmed
// up, the simulator tick loop performs no heap allocation at all — uops,
// checkpoints, queues, the runahead cache and the memory hierarchy all
// recycle.  A regression here silently reintroduces the ~400k-allocations-
// per-run profile this PR removed.
func TestTickLoopZeroAllocSteadyState(t *testing.T) {
	const footprint = 1 << 20
	prog := streamLoop(t, footprint)
	c := New(tickLoopConfig(), prog)

	// Pre-touch the functional memory image so page-table growth is done
	// before measurement (the loop's working set covers it anyway; this just
	// makes the warmup deterministic).
	for a := uint64(0); a < footprint; a += 1 << 12 {
		c.Mem().SetByte(prog.MustSym("buf")+a, 0)
	}
	if err := c.Run(300_000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("warmup: %v", err)
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("tick-loop workload triggered no runahead episodes; the test lost its coverage")
	}
	// EpisodeReaches is the one deliberately unbounded stat (one entry per
	// episode); give it room so its amortised growth doesn't show up as a
	// tick-loop allocation.
	grown := make([]uint64, len(c.stats.EpisodeReaches), 1<<16)
	copy(grown, c.stats.EpisodeReaches)
	c.stats.EpisodeReaches = grown

	avg := testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state tick loop allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestTickLoopZeroAllocTapDisabled pins the leak tap's inertness contract:
// a machine that had observers installed and then removed again (the
// SetObserver(nil) path) must be exactly as allocation-free as one that
// never had them — the nil-checked emission sites are the only footprint
// the tap leaves on an untapped run.
func TestTickLoopZeroAllocTapDisabled(t *testing.T) {
	const footprint = 1 << 20
	prog := streamLoop(t, footprint)
	c := New(tickLoopConfig(), prog)
	// Install both taps, exercise them, then disable — the steady-state
	// measurement below must not see a trace of them.
	events := 0
	c.SetObserver(func(Observation) { events++ })
	c.Hier().SetObserver(func(mem.CacheEvent) { events++ })
	for a := uint64(0); a < footprint; a += 1 << 12 {
		c.Mem().SetByte(prog.MustSym("buf")+a, 0)
	}
	if err := c.Run(300_000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("warmup: %v", err)
	}
	if events == 0 {
		t.Fatal("taps saw no events during warmup; the test lost its coverage")
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("tick-loop workload triggered no runahead episodes; the test lost its coverage")
	}
	c.SetObserver(nil)
	c.Hier().SetObserver(nil)
	grown := make([]uint64, len(c.stats.EpisodeReaches), 1<<16)
	copy(grown, c.stats.EpisodeReaches)
	c.stats.EpisodeReaches = grown

	avg := testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("tick loop with disabled tap allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestTickLoopZeroAllocTracerDisabled extends the inertness contract to the
// lifecycle tracer: a machine that had a per-uop tracer installed and then
// removed (SetTracer(nil)) must be exactly as allocation-free as one that
// never had it.  With the tracer installed, the events themselves pass by
// value through the callback, so the emission sites allocate nothing either
// — only the caller's own sink can.
func TestTickLoopZeroAllocTracerDisabled(t *testing.T) {
	const footprint = 1 << 20
	prog := streamLoop(t, footprint)
	c := New(tickLoopConfig(), prog)
	events := 0
	c.SetTracer(func(TraceEvent) { events++ })
	for a := uint64(0); a < footprint; a += 1 << 12 {
		c.Mem().SetByte(prog.MustSym("buf")+a, 0)
	}
	if err := c.Run(300_000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("warmup: %v", err)
	}
	if events == 0 {
		t.Fatal("tracer saw no events during warmup; the test lost its coverage")
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("tick-loop workload triggered no runahead episodes; the test lost its coverage")
	}
	grown := make([]uint64, len(c.stats.EpisodeReaches), 1<<16)
	copy(grown, c.stats.EpisodeReaches)
	c.stats.EpisodeReaches = grown

	// Still traced: the emission sites themselves must not allocate (the
	// counting sink above closes over an int that already escaped).
	avg := testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("tick loop with tracer installed allocates: %.1f allocs per 20k cycles, want 0", avg)
	}

	c.SetTracer(nil)
	avg = testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("tick loop with removed tracer allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestResetReuseZeroAlloc pins the machine-reuse half of the tentpole: after
// one warmup pass, Reset + full re-run of the same program allocates
// nothing.
func TestResetReuseZeroAlloc(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	c := New(DefaultConfig(), prog)
	run := func() {
		if err := c.Run(20_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run() // warmup 1: grow pools to the program's high-water marks
	c.Reset(prog)
	run() // warmup 2: cover allocations on the reset path itself
	avg := testing.AllocsPerRun(3, func() {
		c.Reset(prog)
		run()
	})
	if avg != 0 {
		t.Fatalf("Reset+Run allocates: %.1f allocs per run, want 0", avg)
	}
}

// freshMachineAllocBudget pins the construction cost of one default-config
// machine.  New currently performs ~165 allocations (queues, pools, caches,
// predictor tables, the predecode cache); the pin leaves a little headroom
// for layout changes but catches order-of-magnitude drift — a regression
// here multiplies across every pooled sweep and campaign worker.
const freshMachineAllocBudget = 200

func TestFreshMachineAllocBudget(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	cfg := DefaultConfig()
	avg := testing.AllocsPerRun(5, func() {
		c := New(cfg, prog)
		_ = c
	})
	if avg > freshMachineAllocBudget {
		t.Fatalf("New allocates %.0f times, budget %d", avg, freshMachineAllocBudget)
	}
}

// TestResetMatchesFresh pins the correctness contract machine reuse rests
// on: a machine lent for a new run is byte-identical — same statistics,
// registers, commit stream and final cache state — to a freshly constructed
// one, across the runahead variants, the §6 mitigations and the BTB attack
// geometry, and even when the machine's previous run used another program
// under another configuration.  For every ordered pair (prev, cfg) the
// machine first runs progA under prev; a machine of the same shape is then
// lent to cfg exactly as Borrow lends an idle one, while a machine of
// another shape goes back to the pool and cfg borrows its own.
func TestResetMatchesFresh(t *testing.T) {
	kind := func(k runahead.Kind) Config { c := DefaultConfig(); c.Runahead.Kind = k; return c }
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", kind(runahead.KindNone)},
		{"original", DefaultConfig()},
		{"precise", kind(runahead.KindPrecise)},
		{"vector", kind(runahead.KindVector)},
		{"secure", func() Config { c := DefaultConfig(); c.Secure.Enabled = true; return c }()},
		{"skip-inv", func() Config { c := DefaultConfig(); c.Runahead.SkipINVBranch = true; return c }()},
		// The BTB PoC's partial-tag geometry (attack.ConfigFor): a second
		// machine shape.
		{"btb", func() Config { c := DefaultConfig(); c.Branch.BTBTagBits = 4; return c }()},
	}
	progA := proggen.Generate(11, proggen.DefaultOptions())
	progB := proggen.Generate(12, proggen.DefaultOptions())
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			want := runObserved(t, New(tc.cfg, progB))
			for _, prev := range cfgs {
				t.Run("after-"+prev.name, func(t *testing.T) {
					m := Borrow(prev.cfg, progA)
					if err := m.Run(20_000_000); err != nil {
						t.Fatalf("first run: %v", err)
					}
					if shapeOf(prev.cfg) == shapeOf(tc.cfg) {
						m.lend(tc.cfg, progB)
					} else {
						m.Release()
						first := m
						if m = Borrow(tc.cfg, progB); m == first {
							t.Fatal("the pool lent a machine across shapes")
						}
					}
					defer m.Release()
					want.diff(t, runObserved(t, m))
				})
			}
		})
	}
}

// observedRun is everything a run exposes: statistics, committed state,
// the commit stream, the data-side cache event stream and the final cache
// contents.
type observedRun struct {
	stats     string
	cycle     uint64
	intRegs   [isa.NumIntRegs]uint64
	commits   []CommitRecord
	events    []mem.CacheEvent
	caches    string
	residency []lineResidency
}

// lineResidency is one line's presence and fill time in each cache level.
type lineResidency struct {
	line    uint64
	present [4]bool
	fill    [4]uint64
}

// runObserved runs c to HALT with a commit hook and a cache observer
// installed, then records its final state.
func runObserved(t *testing.T, c *CPU) observedRun {
	t.Helper()
	var r observedRun
	c.SetCommitHook(func(rec CommitRecord) { r.commits = append(r.commits, rec) })
	c.Hier().SetObserver(func(ev mem.CacheEvent) { r.events = append(r.events, ev) })
	defer func() {
		c.SetCommitHook(nil)
		c.Hier().SetObserver(nil)
	}()
	if err := c.Run(20_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	st, _ := json.Marshal(c.Stats())
	r.stats, r.cycle = string(st), c.Cycle()
	for i := range r.intRegs {
		r.intRegs[i] = c.IntReg(i)
	}
	l1i, l1d, l2, l3 := c.Hier().Caches()
	levels := []*mem.Cache{l1i, l1d, l2, l3}
	cs, _ := json.Marshal([]any{l1i.Stats, l1d.Stats, l2.Stats, l3.Stats, c.Hier().Stats})
	r.caches = string(cs)
	// Every line the run could have touched: its code and every line a
	// data-side fill or eviction named.
	var lines []uint64
	for pc := c.prog.Base; pc < c.prog.Base+uint64(len(c.prog.Insts))*isa.InstBytes; pc += 64 {
		lines = append(lines, c.Hier().LineAddr(pc))
	}
	for _, ev := range r.events {
		lines = append(lines, ev.Line)
	}
	for _, line := range lines {
		lr := lineResidency{line: line}
		for i, lv := range levels {
			lr.present[i], lr.fill[i] = lv.ProbeReady(line)
		}
		r.residency = append(r.residency, lr)
	}
	return r
}

// diff reports every way got departs from the fresh machine's run r.
func (r observedRun) diff(t *testing.T, got observedRun) {
	t.Helper()
	if got.stats != r.stats {
		t.Errorf("stats diverged:\nfresh:  %s\nreused: %s", r.stats, got.stats)
	}
	if got.cycle != r.cycle {
		t.Errorf("cycle = %d, want %d", got.cycle, r.cycle)
	}
	if got.intRegs != r.intRegs {
		t.Errorf("integer registers diverged:\nfresh:  %x\nreused: %x", r.intRegs, got.intRegs)
	}
	if !slices.Equal(got.commits, r.commits) {
		t.Errorf("commit stream diverged (%d vs %d records)", len(got.commits), len(r.commits))
	}
	if !slices.Equal(got.events, r.events) {
		t.Errorf("cache event stream diverged (%d vs %d events)", len(got.events), len(r.events))
	}
	if got.caches != r.caches {
		t.Errorf("cache statistics diverged:\nfresh:  %s\nreused: %s", r.caches, got.caches)
	}
	if !slices.Equal(got.residency, r.residency) {
		t.Error("final cache contents diverged")
	}
}

// TestDeadlockReportsCycles pins the satellite bugfix: a Run that exits via
// ErrDeadlock must still publish the cycle count, so Stats.Cycles and IPC()
// reflect the failed run rather than a stale earlier one.
func TestDeadlockReportsCycles(t *testing.T) {
	// A program with no HALT: fetch runs off the text, the ROB drains, and
	// nothing ever retires again — the livelock Run detects.
	b := asm.NewBuilder(0x1000, 0x10000)
	b.Movi(isa.R(1), 42)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), prog)
	err = c.Run(10_000_000)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if got, want := c.Stats().Cycles, c.Cycle(); got != want || got == 0 {
		t.Fatalf("Stats.Cycles = %d, want the %d cycles the run burned", got, want)
	}
	if c.Stats().IPC() == 0 {
		t.Fatal("IPC() = 0 on a deadlocked run that committed instructions")
	}
}
