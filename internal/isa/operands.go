package isa

import (
	"math"
	"strconv"
)

// Operand is one slot of an instruction's operand list: the Inst field it
// carries and how the assembler spells it.
type Operand uint8

const (
	OperandRd     Operand = iota + 1 // destination register (Rd)
	OperandRs1                       // source register (Rs1)
	OperandRs2                       // second source register (Rs2)
	OperandRs3                       // store data register (Rs3)
	OperandImm                       // integer immediate (Imm), in decimal
	OperandFloat                     // float64 immediate, its bits in Imm
	OperandMem                       // address [Rs1 + Rs2*(1<<Scale) + Imm]; Rs2 may be NoReg
	OperandTarget                    // branch, jump or call target (Target)
)

// The operand forms of opTable's rows, in assembler order.  This is the one
// place the operand syntax is written down: the text assembler, Format,
// SrcRegs and the .sprog codec (internal/prog) all derive from it.
var (
	formReg3     = []Operand{OperandRd, OperandRs1, OperandRs2}     // add rd, rs1, rs2
	formRegImm   = []Operand{OperandRd, OperandRs1, OperandImm}     // addi rd, rs1, imm
	formMovImm   = []Operand{OperandRd, OperandImm}                 // movi rd, imm
	formMovFloat = []Operand{OperandRd, OperandFloat}               // fmovi fd, 0x1.8p+00
	formLoad     = []Operand{OperandRd, OperandMem}                 // ld rd, [rs1 + rs2*8 + off]
	formStore    = []Operand{OperandMem, OperandRs3}                // st [rs1 + off], rs3
	formBranch   = []Operand{OperandRs1, OperandRs2, OperandTarget} // beq rs1, rs2, label
	formTarget   = []Operand{OperandTarget}                         // jmp label; call f
	formSrc      = []Operand{OperandRs1}                            // jr rs1; callr rs1
	formAddr     = []Operand{OperandMem}                            // clflush [rs1 + off]
	formDest     = []Operand{OperandRd}                             // rdtsc rd
)

// Operands returns the opcode's operand slots in assembler order (none for
// an undefined opcode).  The slice is shared: callers must not modify it.
func (o Opcode) Operands() []Operand {
	if int(o) >= NumOpcodes {
		return nil
	}
	return opTable[o].operands
}

// srcFlags caches which fields each opcode reads as sources, read off its
// operand slots, so SrcRegs — on the pipeline's predecode path and the
// codec's validation of every instruction — is one table load.
const (
	srcRs1   uint8 = 1 << iota
	srcRs2         // Rs2 always
	srcIndex       // Rs2 when it is not NoReg (an address's index)
	srcRs3
	srcSP // the implicit stack pointer of CALL, CALLR and RET
)

var srcFlags = func() (t [256]uint8) {
	for op := range t {
		for _, o := range Opcode(op).Operands() {
			switch o {
			case OperandRs1:
				t[op] |= srcRs1
			case OperandRs2:
				t[op] |= srcRs2
			case OperandRs3:
				t[op] |= srcRs3
			case OperandMem:
				t[op] |= srcRs1 | srcIndex
			}
		}
		switch Opcode(op).Kind() {
		case KindCall, KindCallR, KindRet:
			t[op] |= srcSP
		}
	}
	return t
}()

// srcClasses caches, per opcode, the register file each source field —
// rs1, rs2, rs3 — must name (ClassNone: not a source), read off its operand
// slots, so Validate checks classes with one table load.  An address's base
// and index, a branch's operands and the target of jr and callr are
// integers; an ALU source is in its destination's file; store data is in
// the file of the store's width.
var srcClasses = func() (t [256][3]RegClass) {
	for op := range t {
		o := Opcode(op)
		src := ClassInt
		if o.Kind() == KindALU {
			src = o.DestClass()
		}
		data := ClassInt
		switch o {
		case FST:
			data = ClassFP
		case VST:
			data = ClassVec
		}
		for _, slot := range o.Operands() {
			switch slot {
			case OperandRs1:
				t[op][0] = src
			case OperandRs2:
				t[op][1] = src
			case OperandRs3:
				t[op][2] = data
			case OperandMem:
				t[op][0], t[op][1] = ClassInt, ClassInt
			}
		}
	}
	return t
}()

// Format renders the instruction in the text assembler's syntax.  symAt,
// when non-nil, names a target address with a code label ("" for none);
// every other operand is numeric.  A float immediate prints exactly, as a
// hex float or as nan:0x<bits> for a NaN, so the assembler reads back the
// same bits.
func (in Inst) Format(symAt func(uint64) string) string {
	b := make([]byte, 0, 32)
	b = append(b, in.Op.Name()...)
	for i, o := range in.Op.Operands() {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch o {
		case OperandRd:
			b = append(b, in.Rd.String()...)
		case OperandRs1:
			b = append(b, in.Rs1.String()...)
		case OperandRs2:
			b = append(b, in.Rs2.String()...)
		case OperandRs3:
			b = append(b, in.Rs3.String()...)
		case OperandImm:
			b = strconv.AppendInt(b, in.Imm, 10)
		case OperandFloat:
			if v := math.Float64frombits(uint64(in.Imm)); math.IsNaN(v) {
				b = strconv.AppendUint(append(b, "nan:0x"...), uint64(in.Imm), 16)
			} else {
				b = strconv.AppendFloat(b, v, 'x', -1, 64)
			}
		case OperandMem:
			b = append(append(b, '['), in.Rs1.String()...)
			if in.Rs2 != NoReg {
				b = append(append(b, " + "...), in.Rs2.String()...)
				b = strconv.AppendInt(append(b, '*'), 1<<in.Scale, 10)
			}
			b = append(strconv.AppendInt(append(b, " + "...), in.Imm, 10), ']')
		case OperandTarget:
			name := ""
			if symAt != nil {
				name = symAt(in.Target)
			}
			if name != "" {
				b = append(b, name...)
			} else {
				b = strconv.AppendUint(append(b, "0x"...), in.Target, 16)
			}
		}
	}
	return string(b)
}
