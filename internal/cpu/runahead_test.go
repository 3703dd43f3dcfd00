package cpu

import (
	"testing"

	"specrun/internal/asm"
	"specrun/internal/isa"
	"specrun/internal/proggen"
	"specrun/internal/runahead"
)

// stallProgram returns a program whose first round warms the I-cache, then
// stalls on a flushed load with the given body behind it.  flushOffsets are
// additional data-region offsets flushed every round (so body loads to them
// stay cold in the measured round).
func stallProgram(body func(b *asm.Builder), flushOffsets ...int64) *asm.Program {
	b := asm.NewBuilder(0x1000, 0x100000)
	x := b.Alloc("x", 64, 64)
	b.Alloc("data", 8192, 64)
	b.Alloc("stk", 512, 64)
	b.MoviAddr(isa.SP, b.MustSymNow("stk")+512)
	b.MoviAddr(isa.R(1), x)
	b.MoviAddr(isa.R(2), b.MustSymNow("data"))
	// Warm pass: execute the body once with x cached.
	b.Movi(isa.R(9), 2)
	b.Label("round")
	b.Clflush(isa.R(1), 0)
	for _, off := range flushOffsets {
		b.Clflush(isa.R(2), off)
	}
	b.Fence()
	b.Ld(isa.R(3), isa.R(1), 0) // stalling load on the second round
	body(b)
	b.Addi(isa.R(9), isa.R(9), -1)
	b.Bne(isa.R(9), isa.R(0), "round")
	b.Halt()
	return b.MustBuild()
}

// Runahead must restore the architectural state captured at entry: the
// committed registers after the run equal the reference outcome even though
// hundreds of instructions pseudo-retired with INV values.
func TestRunaheadCheckpointRestore(t *testing.T) {
	prog := stallProgram(func(b *asm.Builder) {
		// Dependent chain off the stalling load: all INV during runahead.
		b.Addi(isa.R(4), isa.R(3), 1)
		b.Addi(isa.R(5), isa.R(4), 1)
		b.NopN(300)
		b.Addi(isa.R(6), isa.R(5), 1)
	})
	c := New(DefaultConfig(), prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("no episode")
	}
	// x reads 0; the chain must be architecturally exact.
	if c.IntReg(4) != 1 || c.IntReg(5) != 2 || c.IntReg(6) != 3 {
		t.Fatalf("chain = %d,%d,%d — runahead leaked INV state architecturally",
			c.IntReg(4), c.IntReg(5), c.IntReg(6))
	}
}

// Stores that pseudo-retire during runahead must never reach architectural
// memory, but younger runahead loads must see them via the runahead cache.
func TestRunaheadStoresInvisible(t *testing.T) {
	prog := stallProgram(func(b *asm.Builder) {
		b.NopN(260) // ensure the window fills and runahead engages
		b.Movi(isa.R(10), 0xbeef)
		b.St(isa.R(2), 128, isa.R(10)) // store to data+128
		b.Ld(isa.R(11), isa.R(2), 128) // must forward (SQ or runahead cache)
		b.St(isa.R(2), 256, isa.R(11)) // propagate
	})
	c := New(DefaultConfig(), prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	data := prog.MustSym("data")
	// Architecturally the stores DO commit (the code re-executes after
	// exit); the value must be the real one, not a runahead artefact.
	if got := c.Mem().ReadU64(data + 128); got != 0xbeef {
		t.Fatalf("data+128 = %#x, want 0xbeef", got)
	}
	if got := c.Mem().ReadU64(data + 256); got != 0xbeef {
		t.Fatalf("store-to-load through runahead gave %#x", got)
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("no episode")
	}
}

// A branch with VALID sources inside runahead resolves and recovers normally
// (only INV-source branches stay unresolved).
func TestRunaheadValidBranchRecovers(t *testing.T) {
	prog := stallProgram(func(b *asm.Builder) {
		b.NopN(260)
		b.Movi(isa.R(10), 7)
		b.Movi(isa.R(11), 3)
		b.Blt(isa.R(10), isa.R(11), "never") // valid predicate: not taken
		b.Movi(isa.R(12), 111)
		b.Jmp("join")
		b.Label("never")
		b.Movi(isa.R(12), 222)
		b.Label("join")
	})
	c := New(DefaultConfig(), prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	if c.IntReg(12) != 111 {
		t.Fatalf("r12 = %d, want 111", c.IntReg(12))
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("no episode")
	}
}

// The SkipINVBranch restriction must stop pseudo-retirement at an INV-source
// branch: nothing behind the branch may touch the cache.
func TestSkipINVBranchBarrier(t *testing.T) {
	var probeAddr uint64
	prog := stallProgram(func(b *asm.Builder) {
		b.NopN(260)
		b.Movi(isa.R(10), 5)
		b.Bge(isa.R(3), isa.R(10), "skip") // INV predicate (r3 = stalling load)
		b.Ld(isa.R(11), isa.R(2), 4096)    // would fill data+4096
		b.Label("skip")
	})
	probeAddr = prog.MustSym("data") + 4096
	cfg := DefaultConfig()
	cfg.Runahead.SkipINVBranch = true
	c := New(cfg, prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SkipBarriers == 0 {
		t.Fatal("barrier never engaged")
	}
	// The load DOES execute architecturally after exit (x=0 < 5 is false →
	// bge 0>=5 false → fall-through executes it), so presence alone is not
	// the signal; instead check the barrier stat plus architectural state.
	_ = probeAddr
	if !c.Halted() {
		t.Fatal("program did not complete")
	}
}

// Precise runahead must drop non-slice ALU work at dispatch while keeping
// loads flowing (the paper's "only stall slices are executed").
func TestPreciseRunaheadDropsNonSlice(t *testing.T) {
	prog := stallProgram(func(b *asm.Builder) {
		b.NopN(200)
		for i := 0; i < 24; i++ {
			b.Mul(isa.R(20), isa.R(21), isa.R(22)) // never feeds an address
		}
		b.Ld(isa.R(11), isa.R(2), 2048)
	})
	cfg := DefaultConfig()
	cfg.Runahead.Kind = runahead.KindPrecise
	c := New(cfg, prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("no episode")
	}
	if c.Stats().DroppedPRE == 0 {
		t.Fatal("precise runahead dropped nothing")
	}
}

// Vector runahead must issue stride prefetches for loads with a learned
// stride.
func TestVectorRunaheadPrefetches(t *testing.T) {
	b := asm.NewBuilder(0x1000, 0x100000)
	x := b.Alloc("x", 64, 64)
	arr := b.Alloc("arr", 1<<16, 64)
	b.MoviAddr(isa.R(1), x)
	b.MoviAddr(isa.R(2), arr)
	// Teach the stride detector: a strided load committed several times.
	b.Movi(isa.R(9), 8)
	b.Label("teach")
	b.Ld(isa.R(3), isa.R(2), 0)
	b.Addi(isa.R(2), isa.R(2), 64)
	b.Addi(isa.R(9), isa.R(9), -1)
	b.Bne(isa.R(9), isa.R(0), "teach")
	// Now stall and let the strided load run ahead.
	b.Movi(isa.R(9), 40)
	b.Clflush(isa.R(1), 0)
	b.Fence()
	b.Ld(isa.R(4), isa.R(1), 0)
	b.Label("ra")
	b.Ld(isa.R(3), isa.R(2), 0)
	b.Addi(isa.R(2), isa.R(2), 64)
	b.Addi(isa.R(9), isa.R(9), -1)
	b.Bne(isa.R(9), isa.R(0), "ra")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Runahead.Kind = runahead.KindVector
	c := New(cfg, prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Skip("no episode on this layout (fetch-bound); stride prefetch untestable here")
	}
	if c.Stats().VectorPrefetches == 0 {
		t.Fatal("vector runahead issued no lane prefetches")
	}
}

// Runahead episode accounting: reaches recorded, cycles attributed, exit
// restores ModeNormal.
func TestRunaheadStatsConsistent(t *testing.T) {
	prog := stallProgram(func(b *asm.Builder) { b.NopN(400) })
	c := New(DefaultConfig(), prog)
	if err := c.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if int(s.RunaheadEpisodes) != len(s.EpisodeReaches) {
		t.Fatalf("episodes %d != reaches %d", s.RunaheadEpisodes, len(s.EpisodeReaches))
	}
	if s.RunaheadCycles == 0 || s.PseudoRetired == 0 {
		t.Fatal("episode accounting empty")
	}
	if c.Mode() != ModeNormal {
		t.Fatal("machine stuck in runahead")
	}
}

// Runahead learning is fed only under the variant that reads it: the RDT
// under precise runahead (the dispatch-time slice filter) and the stride
// detector under vector runahead (the lane prefetcher).  Every other
// machine leaves both tables empty.
func TestRunaheadLearningGatedByVariant(t *testing.T) {
	prog := proggen.Generate(21, proggen.DefaultOptions())
	kind := func(k runahead.Kind) Config { c := DefaultConfig(); c.Runahead.Kind = k; return c }
	for _, tc := range []struct {
		name         string
		cfg          Config
		rdt, strides bool
	}{
		{"none", kind(runahead.KindNone), false, false},
		{"original", DefaultConfig(), false, false},
		{"secure", func() Config { c := DefaultConfig(); c.Secure.Enabled = true; return c }(), false, false},
		{"skip-inv", func() Config { c := DefaultConfig(); c.Runahead.SkipINVBranch = true; return c }(), false, false},
		{"precise", kind(runahead.KindPrecise), true, false},
		{"vector", kind(runahead.KindVector), false, true},
	} {
		c := New(tc.cfg, prog)
		if err := c.Run(20_000_000); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := c.rdt.Len() > 0; got != tc.rdt {
			t.Errorf("%s: RDT holds %d slice PCs, want entries: %v", tc.name, c.rdt.Len(), tc.rdt)
		}
		if got := c.strides.Len() > 0; got != tc.strides {
			t.Errorf("%s: stride table holds %d loads, want entries: %v", tc.name, c.strides.Len(), tc.strides)
		}
	}
}
