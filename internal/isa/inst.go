package isa

import "fmt"

// Inst is one decoded instruction.  The assembler produces these directly;
// there is no binary encoding (the simulator is a decoupled functional/timing
// model and fetches decoded instructions, charging I-cache timing by PC).
type Inst struct {
	Op     Opcode
	Rd     Reg    // destination (loads, ALU, RDTSC)
	Rs1    Reg    // first source / base address
	Rs2    Reg    // second source / index register
	Rs3    Reg    // store data register
	Imm    int64  // immediate or address displacement
	Target uint64 // branch/jump/call target (byte address)
	Scale  uint8  // index shift for rs2 in addressing (0..4)
}

// SrcRegs appends the valid source registers of the instruction to dst and
// returns it: the registers its operand slots read (an address reads its
// base and, when present, its index), in field order rs1, rs2, rs3, then
// the implicit stack pointer of CALL, CALLR and RET.  The hardwired zero
// register is included (it always reads 0 but still appears as an operand).
func (in Inst) SrcRegs(dst []Reg) []Reg {
	f := srcFlags[in.Op]
	if f&srcRs1 != 0 {
		dst = append(dst, in.Rs1)
	}
	if f&srcRs2 != 0 || f&srcIndex != 0 && in.Rs2 != NoReg {
		dst = append(dst, in.Rs2)
	}
	if f&srcRs3 != 0 {
		dst = append(dst, in.Rs3)
	}
	if f&srcSP != 0 {
		dst = append(dst, SP)
	}
	return dst
}

// Dest reports the destination register, or NoReg.  CALL and RET update the
// stack pointer as an implicit destination.
func (in Inst) Dest() Reg {
	switch in.Op.Kind() {
	case KindCall, KindCallR, KindRet:
		return SP
	}
	if in.Op.DestClass() == ClassNone {
		return NoReg
	}
	return in.Rd
}

// UsesIndex reports whether the effective address uses rs2<<scale.
func (in Inst) UsesIndex() bool {
	return in.Op.IsMemRef() && in.Rs2 != NoReg
}

// Validate checks operand well-formedness.
func (in Inst) Validate() error {
	if in.Op == BAD || int(in.Op) >= NumOpcodes {
		return fmt.Errorf("isa: bad opcode %d", in.Op)
	}
	if in.Scale > 4 {
		return fmt.Errorf("isa: %s: scale %d out of range", in.Op, in.Scale)
	}
	if in.Op.Kind() == KindFlush && in.Rs2 != NoReg {
		// The machine flushes rs1+imm; an index would name another line.
		return fmt.Errorf("isa: %s: index register %s not allowed", in.Op, in.Rs2)
	}
	if dc := in.Op.DestClass(); dc != ClassNone {
		if in.Op.Kind() == KindCall || in.Op.Kind() == KindRet {
			// implicit sp destination, rd unused
		} else if !in.Rd.Valid() || in.Rd.Class() != dc {
			return fmt.Errorf("isa: %s: destination %s is not a %s register", in.Op, in.Rd, dc)
		}
	}
	var srcs [4]Reg
	for _, r := range in.SrcRegs(srcs[:0]) {
		if !r.Valid() {
			return fmt.Errorf("isa: %s: invalid source register %s", in.Op, r)
		}
	}
	// Every source is in the file its slot reads; an absent index (the only
	// source that may be NoReg once the loop above passed) reads nothing.
	for i, r := range [3]Reg{in.Rs1, in.Rs2, in.Rs3} {
		want := srcClasses[in.Op][i]
		if want == ClassNone || r == NoReg || r.Class() == want {
			continue
		}
		if i == 2 {
			return fmt.Errorf("isa: %s: store data register %s is not a %s register", in.Op, r, want)
		}
		return fmt.Errorf("isa: %s: source register %s is not a %s register", in.Op, r, want)
	}
	return nil
}

// String disassembles the instruction, with numeric branch targets.
func (in Inst) String() string { return in.Format(nil) }
