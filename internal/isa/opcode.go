package isa

// Opcode enumerates every instruction of the ISA.
type Opcode uint8

const (
	// BAD is the zero opcode; executing it is an error.
	BAD Opcode = iota

	// Integer ALU, register forms.
	ADD // rd = rs1 + rs2
	SUB // rd = rs1 - rs2
	MUL // rd = rs1 * rs2
	DIV // rd = rs1 / rs2 (unsigned; x/0 = ^0)
	AND // rd = rs1 & rs2
	OR  // rd = rs1 | rs2
	XOR // rd = rs1 ^ rs2
	SHL // rd = rs1 << (rs2 & 63)
	SHR // rd = rs1 >> (rs2 & 63) (logical)

	// Integer ALU, immediate forms.
	ADDI // rd = rs1 + imm
	ANDI // rd = rs1 & imm
	ORI  // rd = rs1 | imm
	XORI // rd = rs1 ^ imm
	SHLI // rd = rs1 << (imm & 63)
	SHRI // rd = rs1 >> (imm & 63)
	MOVI // rd = imm (64-bit immediate)

	// Loads.  Addressing is rs1 + (rs2 << scale) + imm; the indexed forms
	// use rs2, the plain forms leave it as NoReg.
	LD   // rd = mem64[addr]
	LDB  // rd = zx(mem8[addr])
	LDX  // rd = mem64[rs1 + rs2<<scale + imm]
	LDBX // rd = zx(mem8[rs1 + rs2<<scale + imm])

	// Stores.  The data register is Rs3; addressing as for loads.
	ST   // mem64[addr] = rs3
	STB  // mem8[addr] = rs3 (low byte)
	STX  // mem64[rs1 + rs2<<scale + imm] = rs3
	STBX // mem8[rs1 + rs2<<scale + imm] = rs3

	// Conditional branches compare rs1 against rs2.
	BEQ
	BNE
	BLT  // signed
	BGE  // signed
	BLTU // unsigned
	BGEU // unsigned

	// Unconditional control flow.
	JMP   // pc = target
	JR    // pc = rs1 (indirect; predicted via BTB)
	CALL  // push return address to [sp-8], sp -= 8, pc = target
	CALLR // as CALL but pc = rs1
	RET   // pc = mem64[sp], sp += 8 (predicted via RSB)

	// Cache and measurement instructions.
	CLFLUSH // evict the line containing rs1+imm from the whole hierarchy
	RDTSC   // rd = current cycle (serialising)

	// Floating point (operands are float64 bit patterns in f registers).
	FLD  // fd = mem64[rs1 + rs2<<scale + imm]
	FST  // mem64[...] = fs3
	FADD // fd = fs1 + fs2
	FSUB
	FMUL
	FDIV
	FMOVI // fd = imm (float64 bits)

	// Vector (128-bit, two 64-bit lanes).
	VLD   // vd = mem128[addr]
	VST   // mem128[addr] = vs3
	VADDQ // lane-wise add
	VXORQ // lane-wise xor

	// Miscellaneous.
	NOP   // consumes only a ROB entry; no destination, no backend resource
	FENCE // serialising: dispatch stalls until the ROB drains
	HALT  // stop the program

	numOpcodes
)

// NumOpcodes is the number of defined opcodes (including BAD).
const NumOpcodes = int(numOpcodes)

// Kind is the coarse behavioural class of an opcode.
type Kind uint8

const (
	KindBad Kind = iota
	KindALU
	KindLoad
	KindStore
	KindBranch // conditional
	KindJump   // unconditional direct
	KindJumpR  // unconditional indirect
	KindCall   // direct call (store + jump)
	KindCallR  // indirect call
	KindRet    // return (load + indirect jump)
	KindFlush
	KindRDTSC
	KindNop
	KindFence
	KindHalt
)

// FU identifies a functional-unit class from Table 1.
type FU uint8

const (
	FUNone FU = iota
	FUIntALU
	FUIntMul
	FUIntDiv
	FUFPAdd
	FUFPMul
	FUFPDiv
	FUMem // load/store/flush port
)

type opInfo struct {
	name      string
	kind      Kind
	fu        FU
	lat       uint8     // execution latency in cycles (Table 1)
	destClass RegClass  // ClassNone if no destination
	memSize   uint8     // bytes accessed (0 for non-memory ops)
	operands  []Operand // operand slots in assembler order (operands.go)
}

var opTable = [numOpcodes]opInfo{
	BAD: {"bad", KindBad, FUNone, 0, ClassNone, 0, nil},

	ADD: {"add", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},
	SUB: {"sub", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},
	MUL: {"mul", KindALU, FUIntMul, 2, ClassInt, 0, formReg3},
	DIV: {"div", KindALU, FUIntDiv, 5, ClassInt, 0, formReg3},
	AND: {"and", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},
	OR:  {"or", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},
	XOR: {"xor", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},
	SHL: {"shl", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},
	SHR: {"shr", KindALU, FUIntALU, 1, ClassInt, 0, formReg3},

	ADDI: {"addi", KindALU, FUIntALU, 1, ClassInt, 0, formRegImm},
	ANDI: {"andi", KindALU, FUIntALU, 1, ClassInt, 0, formRegImm},
	ORI:  {"ori", KindALU, FUIntALU, 1, ClassInt, 0, formRegImm},
	XORI: {"xori", KindALU, FUIntALU, 1, ClassInt, 0, formRegImm},
	SHLI: {"shli", KindALU, FUIntALU, 1, ClassInt, 0, formRegImm},
	SHRI: {"shri", KindALU, FUIntALU, 1, ClassInt, 0, formRegImm},
	MOVI: {"movi", KindALU, FUIntALU, 1, ClassInt, 0, formMovImm},

	LD:   {"ld", KindLoad, FUMem, 2, ClassInt, 8, formLoad},
	LDB:  {"ldb", KindLoad, FUMem, 2, ClassInt, 1, formLoad},
	LDX:  {"ldx", KindLoad, FUMem, 2, ClassInt, 8, formLoad},
	LDBX: {"ldbx", KindLoad, FUMem, 2, ClassInt, 1, formLoad},

	ST:   {"st", KindStore, FUMem, 1, ClassNone, 8, formStore},
	STB:  {"stb", KindStore, FUMem, 1, ClassNone, 1, formStore},
	STX:  {"stx", KindStore, FUMem, 1, ClassNone, 8, formStore},
	STBX: {"stbx", KindStore, FUMem, 1, ClassNone, 1, formStore},

	BEQ:  {"beq", KindBranch, FUIntALU, 1, ClassNone, 0, formBranch},
	BNE:  {"bne", KindBranch, FUIntALU, 1, ClassNone, 0, formBranch},
	BLT:  {"blt", KindBranch, FUIntALU, 1, ClassNone, 0, formBranch},
	BGE:  {"bge", KindBranch, FUIntALU, 1, ClassNone, 0, formBranch},
	BLTU: {"bltu", KindBranch, FUIntALU, 1, ClassNone, 0, formBranch},
	BGEU: {"bgeu", KindBranch, FUIntALU, 1, ClassNone, 0, formBranch},

	JMP:   {"jmp", KindJump, FUIntALU, 1, ClassNone, 0, formTarget},
	JR:    {"jr", KindJumpR, FUIntALU, 1, ClassNone, 0, formSrc},
	CALL:  {"call", KindCall, FUMem, 1, ClassNone, 8, formTarget},
	CALLR: {"callr", KindCallR, FUMem, 1, ClassNone, 8, formSrc},
	RET:   {"ret", KindRet, FUMem, 2, ClassNone, 8, nil},

	CLFLUSH: {"clflush", KindFlush, FUMem, 1, ClassNone, 1, formAddr},
	RDTSC:   {"rdtsc", KindRDTSC, FUIntALU, 1, ClassInt, 0, formDest},

	FLD:   {"fld", KindLoad, FUMem, 2, ClassFP, 8, formLoad},
	FST:   {"fst", KindStore, FUMem, 1, ClassNone, 8, formStore},
	FADD:  {"fadd", KindALU, FUFPAdd, 5, ClassFP, 0, formReg3},
	FSUB:  {"fsub", KindALU, FUFPAdd, 5, ClassFP, 0, formReg3},
	FMUL:  {"fmul", KindALU, FUFPMul, 10, ClassFP, 0, formReg3},
	FDIV:  {"fdiv", KindALU, FUFPDiv, 15, ClassFP, 0, formReg3},
	FMOVI: {"fmovi", KindALU, FUFPAdd, 1, ClassFP, 0, formMovFloat},

	VLD:   {"vld", KindLoad, FUMem, 2, ClassVec, 16, formLoad},
	VST:   {"vst", KindStore, FUMem, 1, ClassNone, 16, formStore},
	VADDQ: {"vaddq", KindALU, FUIntALU, 1, ClassVec, 0, formReg3},
	VXORQ: {"vxorq", KindALU, FUIntALU, 1, ClassVec, 0, formReg3},

	NOP:   {"nop", KindNop, FUNone, 1, ClassNone, 0, nil},
	FENCE: {"fence", KindFence, FUNone, 1, ClassNone, 0, nil},
	HALT:  {"halt", KindHalt, FUNone, 1, ClassNone, 0, nil},
}

// Name returns the assembler mnemonic.
func (o Opcode) Name() string {
	if int(o) >= NumOpcodes {
		return "bad"
	}
	return opTable[o].name
}

func (o Opcode) String() string { return o.Name() }

// Kind reports the behavioural class.
func (o Opcode) Kind() Kind {
	if int(o) >= NumOpcodes {
		return KindBad
	}
	return opTable[o].kind
}

// FU reports which functional-unit class executes the opcode.
func (o Opcode) FU() FU { return opTable[o].fu }

// Latency reports the execution latency in cycles (cache access latency is
// added on top for memory operations).
func (o Opcode) Latency() int { return int(opTable[o].lat) }

// DestClass reports the register class of the destination, or ClassNone.
func (o Opcode) DestClass() RegClass { return opTable[o].destClass }

// MemSize reports the access width in bytes for memory operations.
func (o Opcode) MemSize() int { return int(opTable[o].memSize) }

// opFlags packs every derived opcode predicate into one byte per opcode, so
// the hot-path predicates below are a single unchecked table load instead of
// a chain of Kind() switches.  The table spans the full uint8 domain: any
// out-of-range opcode indexes a zero byte and every predicate reads false,
// matching the old KindBad fallthrough without a bounds check.
const (
	fLoad uint8 = 1 << iota
	fStore
	fMemRef
	fCondBranch
	fControl
	fSerializing
)

var opFlags = func() [256]uint8 {
	var t [256]uint8
	for op := 0; op < NumOpcodes; op++ {
		k := opTable[op].kind
		var f uint8
		if k == KindLoad || k == KindRet {
			f |= fLoad | fMemRef
		}
		if k == KindStore || k == KindCall || k == KindCallR {
			f |= fStore | fMemRef
		}
		if k == KindFlush {
			f |= fMemRef
		}
		if k == KindBranch {
			f |= fCondBranch
		}
		if k == KindRDTSC || k == KindFence {
			f |= fSerializing
		}
		switch k {
		case KindBranch, KindJump, KindJumpR, KindCall, KindCallR, KindRet:
			f |= fControl
		}
		t[op] = f
	}
	return t
}()

// IsLoad reports whether the opcode reads data memory (RET included: it pops
// the return address from the stack).
func (o Opcode) IsLoad() bool { return opFlags[o]&fLoad != 0 }

// IsStore reports whether the opcode writes data memory (CALL/CALLR push the
// return address).
func (o Opcode) IsStore() bool { return opFlags[o]&fStore != 0 }

// IsMemRef reports whether the opcode references data memory at all.
func (o Opcode) IsMemRef() bool { return opFlags[o]&fMemRef != 0 }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Opcode) IsCondBranch() bool { return opFlags[o]&fCondBranch != 0 }

// IsControl reports whether the opcode redirects the program counter.
func (o Opcode) IsControl() bool { return opFlags[o]&fControl != 0 }

// IsSerializing reports whether the opcode must execute at the head of the
// reorder buffer (RDTSC and FENCE).
func (o Opcode) IsSerializing() bool { return opFlags[o]&fSerializing != 0 }

// OpcodeByName maps a mnemonic back to its opcode, for the text assembler.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		m[op.Name()] = op
	}
	return m
}()
